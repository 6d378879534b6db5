"""Shared fixtures for the benchmark harness.

One :class:`~repro.experiments.runner.ExperimentRunner` is shared across
all benchmark modules so (workload, prefetcher) simulations are reused —
fig08's speedup runs are the same simulations fig09 reads traffic from,
exactly like a real evaluation campaign.

``--result-cache DIR`` backs that runner with the on-disk result cache
in ``DIR``: pointed at the cache a ``repro report --cache-dir DIR`` left,
the claims read the report's cells instead of simulating them again.
"""

import pytest

from repro.experiments.runner import ExperimentRunner


def pytest_addoption(parser):
    parser.addoption(
        "--result-cache", default=None, metavar="DIR",
        help="result cache directory for the shared runner (for example "
             "the --cache-dir of an earlier repro report)")


@pytest.fixture(scope="session")
def runner(request):
    return ExperimentRunner(
        cache_dir=request.config.getoption("--result-cache"))
