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
