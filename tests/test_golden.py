"""Golden outputs of the command line.

Pins stdout, stderr and exit code of ``classify`` (text, ``--json`` and
``--tenfold``) on a fixed set of spec files, four unsupported
configurations among them, of ``sample --kind gaussian`` for all ten
classes, of ``stats --poisson`` and of ``classify`` (text and
``--json``) on the permutation modules of S4, A5, S5 and S6 in a random
basis, and of ``classify --tenfold --json`` on two multi-sector G0s
and a spin-half G0 with T = K, byte for byte, against
``golden_outputs.txt``.  Outputs that rest on LAPACK rounding (circular
samples, eigenvalue statistics, residual digits) are left out.

A change that alters one of these outputs on purpose regenerates the
file with ``PYTHONPATH=src python tests/test_golden.py`` and says why in
CHANGES.md.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from tenfold import linalg
from tenfold.cli import main
from tenfold.specfile import matrix_to_pairs

GOLDEN = Path(__file__).with_name("golden_outputs.txt")

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # J on C^2, also i sigma_y
_OMEGA = np.exp(2j * np.pi / 3)


def _spec(dim, mode="none", generators=(), t=None, s=None):
    data = {"schema_version": "1", "dimension": dim, "setting": "hilbert",
            "g0": {"mode": mode}}
    if generators:
        data["g0"]["generators"] = [matrix_to_pairs(np.asarray(g, complex))
                                    for g in generators]
    if t is not None:
        data["time_reversal"] = {"matrix": matrix_to_pairs(
            np.asarray(t, complex))}
    if s is not None:
        data["particle_hole"] = {"s_matrix": matrix_to_pairs(
            np.asarray(s, complex))}
    return data


_SPIN1 = [np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2),
          np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2),
          np.diag([1.0, 0.0, -1.0])]

SPECS = {
    "trivial-3": _spec(3),
    "trivial-t-j-4": _spec(4, t=np.kron(_J2, np.eye(2))),
    "u1-s-3": _spec(3, "lie-algebra", [1j * np.eye(3)],
                    s=np.diag([1.0, -1.0, -1.0])),
    "u1-s-t1-3": _spec(3, "lie-algebra", [1j * np.eye(3)], t=np.eye(3),
                       s=np.diag([1.0, -1.0, -1.0])),
    "u1-s-tjpq-4": _spec(4, "lie-algebra", [1j * np.eye(4)],
                         t=np.kron(np.eye(2), _J2),
                         s=np.diag([1.0, 1.0, -1.0, -1.0])),
    "spin-half-4": _spec(4, "spin-half"),
    "spin-half-tspin-4": _spec(4, "spin-half", t=np.kron(np.eye(2), _J2)),
    "z3-t1-3": _spec(3, "finite-group", [np.diag([1, _OMEGA, _OMEGA ** 2])],
                     t=np.eye(3)),
    "su2-spin1-x2-6": _spec(6, "lie-algebra",
                            [1j * np.kron(np.eye(2), x) for x in _SPIN1]),
    # the four branches outside the tenfold decision table
    "spin-half-t-plus-4": _spec(4, "spin-half", t=np.kron(_J2, _J2)),
    "trivial-s-3": _spec(3, s=np.diag([1.0, -1.0, -1.0])),
    "d4-real-x2-4": _spec(4, "finite-group",
                          [np.kron([[0, -1], [1, 0]], np.eye(2)),
                           np.kron(np.diag([1, -1]), np.eye(2))]),
    "trivial-t1-4": _spec(4, t=np.eye(4)),
}



def _permutation_spec(k, cycles, mult, extra, t=None, seed=0):
    """C^mult (x) C^k under the permutations ``cycles`` (images of
    0..k-1), plus ``extra`` trivial lines, in a Haar-random basis W;
    the unitary part t of T maps to W t W^t."""
    n = mult * k + extra
    gens = []
    for images in cycles:
        g = np.eye(n)
        g[:mult * k, :mult * k] = np.kron(np.eye(mult), np.eye(k)[:, images])
        gens.append(g)
    w = linalg.haar_unitary(n, linalg.RngStream(seed))
    return _spec(n, "finite-group", [w @ g @ w.conj().T for g in gens],
                 t=None if t is None else w @ t @ w.T)


# closures of order 24 to 720; the module is trivial + standard
GROUP_SPECS = {
    "s4-perm-6": _permutation_spec(4, [(1, 2, 3, 0), (1, 0, 2, 3)], 1, 2,
                                   seed=41),
    "a5-perm-t1-6": _permutation_spec(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
                                      1, 1, t=np.eye(6), seed=42),
    "s5-perm-tj-10": _permutation_spec(5, [(1, 2, 3, 4, 0),
                                           (1, 0, 2, 3, 4)], 2, 0,
                                       t=np.kron(_J2, np.eye(5)), seed=43),
    "s6-perm-6": _permutation_spec(6, [(1, 2, 3, 4, 5, 0),
                                       (1, 0, 2, 3, 4, 5)], 1, 0, seed=44),
}

SAMPLE_DIMS = {"A": "3", "AI": "3", "AII": "4", "C": "2", "CI": "2",
               "D": "2", "DIII": "2", "AIII": "1,2", "BDI": "2,1",
               "CII": "2,2"}

COMMANDS = [["classify", f"{name}.json"] + flags
            for name in SPECS for flags in ([], ["--json"], ["--tenfold"])]
COMMANDS += [["sample", "--class", family, "--dims", dims, "--kind",
              "gaussian", "--count", "2", "--seed", "5"]
             for family, dims in SAMPLE_DIMS.items()]
COMMANDS.append(["stats", "--poisson", "8", "--count", "3"])
COMMANDS += [["classify", f"{name}.json"] + flags
             for name in GROUP_SPECS for flags in ([], ["--json"])]

# one SIGNATURE row per sector: two real characters, a charge joined with
# its dual, and a T that is a G0 element times the canonical CI twist
TENFOLD_SPECS = {
    "z2-4": _spec(4, "finite-group", [np.diag([1.0, 1.0, -1.0, -1.0])]),
    "u1-dual-charges-s-4": _spec(
        4, "lie-algebra", [1j * np.diag([1.0, 1.0, -1.0, -1.0])],
        s=np.diag([1.0, -1.0, 1.0, -1.0])),
    "spin-half-t1-4": _spec(4, "spin-half", t=np.eye(4)),
}
COMMANDS += [["classify", f"{name}.json", "--tenfold", "--json"]
             for name in TENFOLD_SPECS]


def run(argv, workdir):
    """``$ argv``, the exit code, stdout and stderr as one text block."""
    paths = [str(Path(workdir) / a) if a.endswith(".json") else a
             for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(paths)
    return (f"$ {' '.join(argv)}\nexit {code}\n--- stdout\n"
            f"{out.getvalue()}--- stderr\n{err.getvalue()}")


def write_specs(workdir):
    for name, data in {**SPECS, **GROUP_SPECS, **TENFOLD_SPECS}.items():
        (Path(workdir) / f"{name}.json").write_text(json.dumps(data))


def golden_blocks():
    """The file's blocks by command line (without the ``$ ``)."""
    blocks = re.split(r"(?m)^(?=\$ )", GOLDEN.read_text(encoding="utf-8"))
    return {block.split("\n", 1)[0][2:]: block for block in blocks[1:]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_specs(path)
    return path


def test_golden_file_lists_every_command():
    assert list(golden_blocks()) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv, workdir):
    assert golden_blocks()[" ".join(argv)] == run(argv, workdir)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_specs(tmp)
        GOLDEN.write_text("".join(run(argv, tmp) for argv in COMMANDS),
                          encoding="utf-8")
