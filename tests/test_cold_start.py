"""The library's import loads scipy's compiled BLAS/LAPACK modules without the
scipy.linalg package.  Each check runs in a fresh interpreter, since this
test process has imported scipy.linalg already."""
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# routine identity with scipy's public modules, and lu_solve's bits against
# scipy.linalg's LU on a few systems
SAME_AS_SCIPY = """
import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
from bilevel_newton import linalg, problem
assert linalg.dgetrf is scipy.linalg.lapack.dgetrf
assert linalg.dgetrs is scipy.linalg.lapack.dgetrs
assert problem.ddot is scipy.linalg.blas.ddot
rng = np.random.default_rng(3)
for n in (1, 4, 30):
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
    assert linalg.lu_solve(A, b).tobytes() == expected.tobytes(), n
"""

# records the direct lookups of bilevel_newton._lapack, which find nothing
# when MISS is true; the import machinery's own lookups are left alone
LOOKUPS = """
import sys
from importlib.machinery import PathFinder
real = PathFinder.find_spec.__func__
lookups = []

def find_spec(cls, name, path=None, target=None):
    if sys._getframe(1).f_globals["__name__"] == "bilevel_newton._lapack":
        lookups.append(name)
        if MISS:
            return None
    return real(cls, name, path, target)
PathFinder.find_spec = classmethod(find_spec)
"""


def run_fresh(*parts: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "\n".join(map(textwrap.dedent, parts))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_import_and_every_cli_mode_leave_scipy_linalg_unimported():
    run_fresh("""
        import contextlib, io, sys
        import bilevel_newton, bilevel_newton.cli
        assert "scipy.linalg" not in sys.modules
        assert {"scipy.linalg._fblas", "scipy.linalg._flapack"} <= set(sys.modules)
        for args in (["sweep", "--problem", "quadratic-projection", "--format", "csv"],
                     ["solve", "--problem", "xy-linear"],
                     ["check-derivatives", "--problem", "dempe-parabola"],
                     ["diagnose", "--problem", "dempe-parabola", "--lambda", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert bilevel_newton.cli.main(args) == 0, args
            assert "scipy.linalg" not in sys.modules, args
    """)


def test_scipy_linalg_imported_later_reuses_the_loaded_modules():
    run_fresh("""
        import sys
        import bilevel_newton
        from scipy.linalg import _fblas, _flapack
        assert _fblas is sys.modules["scipy.linalg._fblas"] is bilevel_newton._lapack._fblas
        assert _flapack is sys.modules["scipy.linalg._flapack"] is bilevel_newton._lapack._flapack
    """, SAME_AS_SCIPY)


def test_scipy_linalg_imported_first_is_reused():
    run_fresh("MISS = False", LOOKUPS, """
        import scipy.linalg
        fblas, flapack = sys.modules["scipy.linalg._fblas"], sys.modules["scipy.linalg._flapack"]
        import bilevel_newton
        assert lookups == [], lookups
        assert bilevel_newton._lapack._fblas is fblas and bilevel_newton._lapack._flapack is flapack
    """, SAME_AS_SCIPY)


def test_public_scipy_import_when_the_direct_lookup_finds_nothing():
    run_fresh("MISS = True", LOOKUPS, """
        import bilevel_newton
        assert lookups == ["scipy.linalg._fblas", "scipy.linalg._flapack"], lookups
        assert "scipy.linalg.blas" in sys.modules and "scipy.linalg.lapack" in sys.modules
    """, SAME_AS_SCIPY)


def test_a_failed_load_leaves_no_module_behind():
    run_fresh("""
        import sys
        from importlib.machinery import ExtensionFileLoader
        real = ExtensionFileLoader.exec_module

        def exec_module(self, module):
            if module.__name__ == "scipy.linalg._fblas":
                raise ImportError("broken " + module.__name__)
            real(self, module)
        ExtensionFileLoader.exec_module = exec_module
        try:
            import bilevel_newton
        except ImportError as exc:
            assert str(exc) == "broken scipy.linalg._fblas", exc
        else:
            raise AssertionError("import succeeded")
        assert "scipy.linalg._fblas" not in sys.modules
    """)
