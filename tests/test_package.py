import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import twowell
from twowell import bethe, cli, fock, model, yangbaxter

MODULES = (bethe, fock, model, yangbaxter)


def test_package_exports_each_module_all():
    # each module's __all__ is the one list of its public names
    assert twowell.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(twowell.__all__)) == len(twowell.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(twowell, name) is getattr(module, name), name


def test_the_cli_imports_no_scipy_special():
    # scipy.special adds about 3.6 MB and 40-60 ms to a cold start; bethe
    # takes its binomials and log-factorials from math instead
    src = str(Path(twowell.__file__).resolve().parent.parent)
    code = "import sys; sys.path.insert(0, sys.argv[1]); import twowell.cli; print('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_every_record_but_match_report_compares_by_identity():
    # the records hold arrays, whose generated == raised; MatchReport holds none
    records = {obj for module in MODULES for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert {cls.__name__ for cls in records if cls.__eq__ is not object.__eq__} == {"MatchReport"}
    report = bethe.match_spectrum([], [1.0])
    assert report == bethe.match_spectrum([], [1.0]) and report != bethe.match_spectrum([], [])


@pytest.mark.parametrize("build", [
    lambda: cli.scan_params(0.3),
    lambda: yangbaxter.default_integrable_params(2),
    lambda: bethe.solve_bae(yangbaxter.default_integrable_params(2), 3).solutions[0],
    lambda: bethe.solve_bae(yangbaxter.default_integrable_params(2), 3),
    lambda: yangbaxter.validate_model(yangbaxter.identify_parameters(yangbaxter.default_integrable_params(2))),
], ids=["ModelParams", "IntegrableParams", "BetheSolution", "SolveResult", "IdentificationReport"])
def test_records_built_twice_are_distinct_and_hashable(build):
    a, b = build(), build()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True and (a != a) is False
    assert len({a, b, a}) == 2
