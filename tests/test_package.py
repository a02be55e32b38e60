"""Package surface: exported names and import-time dependencies."""
import subprocess
import sys
import types

import selfaffine


def test_all_exports_public_objects_not_submodules():
    assert "expand_level" in selfaffine.__all__
    for name in selfaffine.__all__:
        assert not isinstance(getattr(selfaffine, name), types.ModuleType), name


def test_import_does_not_load_scipy():
    code = (
        "import sys, selfaffine; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_lower_scans_do_not_load_numpy_ma():
    # np.unique without flags imports numpy.ma (numpy 2.3 and later): about
    # 15 ms and 1 MiB for each command that scans
    code = """
import sys
from selfaffine import expand_level, lower_density_profile, natural_schedule, validate_pair
for pair in (validate_pair([[-2]], [[0], [1]]), validate_pair([[1, -1], [1, 1]], [[0, 0], [1, 0]])):
    pts, nxt = expand_level(pair, 6), expand_level(pair, 7)
    lower_density_profile(pts, natural_schedule(pts), nxt)
print('numpy.ma' in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
