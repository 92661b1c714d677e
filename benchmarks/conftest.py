"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark prints its figure as an aligned text table (visible with
``pytest benchmarks/ --benchmark-only -s``) and writes the same data as
CSV under ``benchmarks/results/`` so EXPERIMENTS.md can be regenerated.
"""

import pathlib

import pytest

# the fast-vs-reference A/B guard builds its reference clusters through
# the same seam as the tier-1 bit-identity tests
from tests.conftest import reference_engines  # noqa: F401

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(table, results_dir: pathlib.Path, name: str) -> None:
    """Print a Table and persist it as CSV."""
    text = table.render()
    print("\n" + text)
    (results_dir / f"{name}.csv").write_text(table.to_csv() + "\n")
