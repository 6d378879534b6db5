"""Benchmark of the paper pipeline, one workload at one seed per call.

    python3 perfbench/run.py --workload figs-cached --seed 1 \\
        --seconds 25 --trace 0 [--save result.json]

Run from the repository root.  Each pass runs in a fresh Python process
(``child.py``) against the sources in ``src/``.  ``--trace 0`` reports
the end-to-end metrics: a run lasts about ``--seconds``, taking passes
while the next one still fits (at least two), and reports the median
over its passes; set-up time is the median over every process of the
run.  Those times are rescaled to a reference host speed sampled while
each process runs (``pace.py``); the raw ones are printed beside them.
``--trace 1`` runs an untraced, a traced and another untraced pass
at the same seed and reports every per-layer metric.  Every pass is
checked against the correctness reference recorded for its inputs
(``reference.json``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
"""Benchmark-owned state in the checkout: the trace cache (filled once,
untimed) and per-run temporary directories (removed on exit)."""

MIN_PASSES = 2

CHILD_TIMEOUT = 170
PREPARE_TIMEOUT = 850
"""The prepare step may build every candidate trace (first run only)."""


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong result)."""


class Sandbox:
    """A temporary working directory inside the checkout for the child
    processes.  Its ``runs/traces`` points at the persistent trace cache
    (the program's default trace-cache root is ``runs/traces`` under the
    working directory); everything else a pass writes, the result cache
    included, stays inside it and is removed on exit."""

    def __init__(self) -> None:
        (STATE / "tmp").mkdir(parents=True, exist_ok=True)
        (STATE / "traces").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
        (self.dir / "runs").mkdir()
        (self.dir / "runs" / "traces").symlink_to(STATE / "traces")
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.dir)
        self.count = 0

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, mode: str, workload: str, seed: int, trace: int = 0,
              inputs: dict | None = None) -> dict:
        """Run one child process to completion and return its document."""
        self.count += 1
        out = self.dir / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", str(out)]
        if inputs is not None:
            cmd += ["--inputs", json.dumps(inputs)]
        t0 = time.monotonic()
        # A session of its own, so a timeout also stops any pool workers.
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=self.dir,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(
                timeout=PREPARE_TIMEOUT if mode == "prepare"
                else CHILD_TIMEOUT)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} process timed out") from None
            raise
        if proc.returncode != 0 or not out.exists():
            tail = "\n".join(stderr.strip().splitlines()[-15:])
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             f"{tail}")
        with open(out) as handle:
            return json.load(handle)


def refused_env() -> list[str]:
    return sorted(k for k in os.environ if k.startswith("REPRO_"))


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_reference() -> dict:
    path = HERE / "reference.json"
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def check_pass(doc: dict, workload: str, reference: dict | None
               ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` for one pass.

    Attempts are the simulations and rendered figures of the reference
    and of the pass together, and each section that raised.  A failure
    is a section that raised, or a simulation or figure that is missing
    or differs from the reference recorded for these inputs; without a
    reference, every one of them fails.  Each broken run invariant adds
    one failed attempt, so ``failed`` never exceeds ``attempted``.
    """
    from metrics import SINGLE_CORE
    from tracing import tier_of

    problems = list(doc["errors"])
    failed = attempted = len(doc["errors"])
    if reference is None:
        problems.append("no reference recorded for these inputs")
        unchecked = max(1, len(doc["cells"]) + len(doc["figures"]))
        attempted += unchecked
        failed += unchecked
    else:
        for kind in ("cells", "figures"):
            want, got = reference[kind], doc[kind]
            keys = set(want) | set(got)
            attempted += len(keys)
            for key in sorted(keys):
                if want.get(key) != got.get(key):
                    failed += 1
                    if len(problems) < 20:
                        problems.append(f"{kind[:-1]} {key}: expected "
                                        f"{want.get(key)}, got "
                                        f"{got.get(key)}")
    invariants = []
    if doc["trace_builds"]:
        invariants.append(f"{doc['trace_builds']} trace(s) built in a "
                          f"timed process")
    if doc.get("pace", {}).get("unsampled_forks"):
        invariants.append(f"{doc['pace']['unsampled_forks']} forked "
                          f"process(es) left no speed samples")
    if workload in SINGLE_CORE:
        generic = [k for k, v in doc["kernels"].items()
                   if tier_of(v) == "generic"]
        if generic:
            invariants.append(f"{len(generic)} single-core cell(s) fell "
                              f"back to the generic loop")
    for runner in doc["runners"]:
        if runner["phase"] == "warm" and runner["simulated"]:
            invariants.append(f"warm re-render simulated "
                              f"{runner['simulated']} cell(s)")
        if runner["phase"] == "cold" and runner["cached"]:
            cold = sum(1 for k in doc["kernels"] if k.startswith("cold:"))
            if cold != runner["simulated"]:
                invariants.append(f"cold phase: {cold} distinct cells but "
                                  f"{runner['simulated']} simulated")
    problems.extend(invariants)
    return (attempted + len(invariants), failed + len(invariants),
            problems)


def simulated_summary(doc: dict) -> list[str]:
    """Key simulated statistics of a pass (model output, not timing)."""
    cells = doc["cells"]
    lines = []
    for app in doc["inputs"].get("apps", []):
        base = cells.get(f"cold:{app}/none#")
        tpc = cells.get(f"cold:{app}/tpc#")
        if base and tpc:
            lines.append(f"TPC speedup over none on {app}: "
                         f"{base[0] / tpc[0]:.4f}")
    for mix in doc["inputs"].get("mixes", []):
        label = "+".join(mix)
        base = cells.get(f"mix:{label}/none")
        for prefetcher in ("tpc", "bop"):
            shared = cells.get(f"mix:{label}/{prefetcher}")
            if base and shared:
                mean = statistics.fmean(b[0] / s[0]
                                        for b, s in zip(base, shared))
                lines.append(f"{prefetcher} mean per-app shared-mode "
                             f"speedup on {label}: {mean:.4f}")
    return lines


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def timed_run(box: Sandbox, workload: str, seed: int, deadline: float
              ) -> dict:
    """Passes until ``deadline``: at least ``MIN_PASSES``, and another
    one while it, if as long as the longest so far, still ends by then.
    Each pass process also gives one set-up time."""
    setups = []
    docs = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        doc = box.spawn("pass", workload, seed)
        longest = max(longest, time.monotonic() - t0)
        docs.append(doc)
        setups.append(doc["setup_s"])
        if (len(docs) >= MIN_PASSES
                and time.monotonic() + longest > deadline):
            break
    metrics = {
        "setup_s": statistics.median(d["pace"]["setup"]["wall"]
                                     for d in docs),
        "wall_s": statistics.median(d["pace"]["pass"]["wall"]
                                    for d in docs),
        "cpu_s": statistics.median(d["pace"]["pass"]["cpu"] for d in docs),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(d["wall_s"] for d in docs),
        "cpu_s": statistics.median(d["cpu_s"] for d in docs),
        "speed_factor": statistics.median(d["pace"]["pass"]["factor"]
                                          for d in docs),
        "sampling_overhead": statistics.median(
            d["pace"]["pass"]["overhead"] for d in docs),
    }
    return {"docs": docs, "metrics": metrics, "raw": raw, "setups": setups}


def traced_run(box: Sandbox, workload: str, seed: int) -> dict:
    """An untraced, a traced and another untraced pass: the untraced
    wall time the traced one is compared with is the mean of the two
    around it, each rescaled to the reference host like the traced
    pass's spans (``pace.py``)."""
    from metrics import per_layer

    first = box.spawn("pass", workload, seed)
    traced = box.spawn("pass", workload, seed, trace=1)
    last = box.spawn("pass", workload, seed)
    return {"docs": [first, traced, last],
            "metrics": per_layer([first, last], traced),
            "traced": traced}


def verdict(run: dict, workload: str, reference: dict) -> dict:
    """Check every pass of a run, and that every pass of it picked the
    same kernel variant for each simulation as the first one did (in a
    traced run: traced and untraced alike)."""
    from inputs import reference_key

    attempted = failed = 0
    problems: list[str] = []
    for doc in run["docs"]:
        ref = reference.get(reference_key(workload, doc["inputs"]))
        a, f, p = check_pass(doc, workload, ref)
        attempted += a
        failed += f
        problems.extend(p)
    first = run["docs"][0]["kernels"]
    for doc in run["docs"][1:]:
        kernels = doc["kernels"]
        label = "traced pass" if "trace" in doc else "later pass"
        for key in sorted(set(first) | set(kernels)):
            attempted += 1
            if first.get(key) != kernels.get(key):
                failed += 1
                problems.append(f"kernel {key}: first pass "
                                f"{first.get(key)}, {label} "
                                f"{kernels.get(key)}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", help="also write the full result here")
    args = parser.parse_args(argv)

    refused = refused_env()
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set; "
              f"the benchmark measures the default configuration",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import KIND
    from metrics import END_TO_END, PER_LAYER

    if args.workload not in KIND:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(KIND)}", file=sys.stderr)
        return 2

    # A terminated run still removes its sandbox and stops its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with Sandbox() as box:
            stamp = box.spawn("prepare", args.workload, args.seed)["stamp"]
            stamp["git_sha"] = git_sha()
            deadline = time.monotonic() + args.seconds
            if args.trace:
                run = traced_run(box, args.workload, args.seed)
            else:
                run = timed_run(box, args.workload, args.seed, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    result = verdict(run, args.workload, load_reference())
    attempted, failed = result["attempted"], result["failed"]
    first = run["docs"][0]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"inputs={json.dumps(first['inputs'])} passes={len(run['docs'])}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    units.update({name: spec[0] for name, spec in PER_LAYER.items()})
    for name, value in run["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for name, value in run.get("raw", {}).items():
        print(f"  {'raw ' + name:34s} {value:14.6g}")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed}/{attempted})")
    for line in simulated_summary(first):
        print(f"  simulated: {line}")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in run["metrics"].items()}
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "stamp": stamp,
                       "inputs": first["inputs"], "metrics": metrics,
                       "raw": run.get("raw", {}),
                       "setups": run.get("setups", []),
                       "walls": [d["wall_s"] for d in run["docs"]],
                       "cpus": [d["cpu_s"] for d in run["docs"]],
                       "paces": [d.get("pace") for d in run["docs"]],
                       "problems": result["problems"],
                       "attempted": attempted, "failed": failed}, handle,
                      indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
