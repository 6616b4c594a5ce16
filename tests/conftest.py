import importlib.util
import pathlib
import sys

import pytest

from ordlang.opm import get_opm

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
SMOKE = PROGRAMS / "smoke"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SCALING = ROOT / "perfbench" / "scaling.py"


@pytest.fixture(scope="session")
def regex_opm():
    return get_opm("regex")


@pytest.fixture(scope="session")
def ownership_opm():
    return get_opm("ownership")


def program_source(name: str) -> str:
    return (PROGRAMS / name).read_text()


def smoke_programs() -> list[pathlib.Path]:
    return sorted(SMOKE.glob("*.ord"))


def workload_round(name: str, round_: int = 0) -> list:
    """One round (0 unless given), seed 1, of one of the benchmark's generated
    workloads, as jobs."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["workloads"].WORKLOADS[name](1, round_)


def scaling_families() -> dict:
    """The program families of the benchmark's scaling report, by name."""
    spec = importlib.util.spec_from_file_location("scaling", SCALING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES
