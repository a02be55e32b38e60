"""Package surface: exported names, import-time dependencies, one budget module, one point order."""
import ast
import subprocess
import sys
import types
from pathlib import Path

import selfaffine
from selfaffine import errors


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


def test_budget_refusals_are_built_only_in_the_budget_module():
    # every kernel refuses through errors._enforce_budget, which alone holds the floor
    found = []
    for path in sorted(Path(selfaffine.__file__).parent.rglob("*.py")):
        if path.name == Path(errors.__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "BudgetExceeded":
                    found.append(f"{path.name}:{node.lineno} constructs BudgetExceeded")
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            if "_MIN_BUDGET" in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names _MIN_BUDGET")
    assert found == []


def test_points_are_ordered_only_in_the_pointset_module():
    # every set is merged and ordered by pointset._canonicalize, reached through pointset alone
    found = []
    for path in sorted(Path(selfaffine.__file__).parent.rglob("*.py")):
        if path.name == "pointset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            for name in names & {"_canonicalize", "_from_canonical"}:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names {name}")
    assert found == []
