"""spectral.py and solver.py hold only half spectra, so they make no complex
2D transform: every field goes through rfft2/irfft2 or the pruned 1D
transforms of the step. Any call whose callee ends in `.fft2` or `.ifft2`
(np.fft.fft2, numpy.fft.ifft2, fft.fft2, ...) or is a bare `fft2`/`ifft2`
name counts."""

import ast
import pathlib

import bplab

PACKAGE = pathlib.Path(bplab.__file__).parent
GUARDED = ("spectral.py", "solver.py")
BANNED = {"fft2", "ifft2"}


def complex_2d_transforms(source):
    """(line, callee name) for each fft2 or ifft2 call in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                func.id if isinstance(func, ast.Name) else None
            if name in BANNED:
                found.append((node.lineno, name))
    return found


def test_scanner_finds_each_form():
    source = (
        "import numpy as np\nfrom numpy.fft import ifft2\n"
        "np.fft.fft2(a); numpy.fft.ifft2(a); ifft2(a)\n"
        "np.fft.rfft2(a); np.fft.irfft2(a); np.fft.fft(a); np.fft.ifft(a)\n"
    )
    assert complex_2d_transforms(source) == [(3, "fft2"), (3, "ifft2"), (3, "ifft2")]


def test_no_complex_2d_transforms():
    offenders = [f"{name}:{line}: {call}" for name in GUARDED
                 for line, call in complex_2d_transforms((PACKAGE / name).read_text())]
    assert offenders == []
