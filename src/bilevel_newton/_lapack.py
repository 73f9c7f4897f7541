"""The four compiled BLAS/LAPACK routines the library calls: ``ddot``
(``problem``'s finiteness test), ``dgetrf``/``dgetrs`` (``linalg``'s LU) and
``dsyevr`` (``linalg``'s smallest symmetric eigenvalue).  They live here
rather than in ``linalg``, which imports ``problem``.

They are the very objects that ``scipy.linalg.blas`` and
``scipy.linalg.lapack`` expose, taken from scipy's f2py extension modules
``scipy.linalg._fblas`` and ``scipy.linalg._flapack``.  Those two modules
are loaded from their files (importlib's "import a source file directly"
recipe) after a plain ``import scipy``, which runs scipy's distributor
init, so the ``scipy.linalg`` package is never imported: its ``__init__``
pulls in scipy's array-API layer and about 300 more modules, half of the
library's import time, for nothing the library uses.

A module that ``sys.modules`` already holds is reused, so the routines are
the same objects in either import order, and a ``scipy.linalg`` imported
later reuses the two loaded here (``from scipy.linalg import _fblas`` finds
them, though the package gets no ``_fblas`` attribute: Python sets one only
when it loads a submodule itself).  When scipy's layout has no such file,
the public ``scipy.linalg.blas``/``scipy.linalg.lapack`` import is used
instead: slower to import, the same routines.
"""
from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import scipy  # runs scipy's distributor init, where Windows wheels set their DLL path


def _linalg_extension(name: str):
    """The module scipy.linalg.<name>, loaded without scipy.linalg; None when not found."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    spec = PathFinder.find_spec(full, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


_fblas = _linalg_extension("_fblas")
_flapack = _linalg_extension("_flapack")
if _fblas is None or _flapack is None:
    from scipy.linalg.blas import ddot
    from scipy.linalg.lapack import dgetrf, dgetrs, dsyevr
else:
    ddot = _fblas.ddot
    dgetrf, dgetrs, dsyevr = _flapack.dgetrf, _flapack.dgetrs, _flapack.dsyevr
