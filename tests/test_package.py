import subprocess
import sys
from pathlib import Path

import twowell
from twowell import bethe, fock, model, yangbaxter

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
