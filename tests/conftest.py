"""Shared fixtures: compiled programs are expensive enough to cache per
session, and bench artifacts stay out of the working tree."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from zoo import SHOP_ENTITIES, ZOO_ENTITIES  # noqa: E402

from repro import compile_program  # noqa: E402
from repro.workloads import TPCC_ENTITIES, Account  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _bench_artifacts_in_tmp(tmp_path_factory):
    """Every ``BENCH_<cell>.json`` a test run writes lands in a temp
    directory instead of the repository root.  Set in ``os.environ`` so
    CLI subprocesses inherit it; a test's own ``monkeypatch.setenv``
    still wins for that test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BENCH_DIR",
                     str(tmp_path_factory.mktemp("bench")))
        yield


@pytest.fixture(scope="session")
def shop_program():
    return compile_program(SHOP_ENTITIES)


@pytest.fixture(scope="session")
def zoo_program():
    return compile_program(ZOO_ENTITIES)


@pytest.fixture(scope="session")
def account_program():
    return compile_program([Account])


@pytest.fixture(scope="session")
def tpcc_program():
    return compile_program(TPCC_ENTITIES)
