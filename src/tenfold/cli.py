"""Command-line surface: classify, sample, stats, verify, fock-verify.

Exit codes: 0 success, 2 input or schema error, 3 symmetry-consistency
error, 4 unsupported configuration, 5 invariant failure.  All outputs
are deterministic functions of the inputs, flags and seed; the seed
defaults to 0 and is echoed in every output header.
"""

import argparse
import json
import sys

import numpy as np

from . import ensembles, focklab, linalg, verify
from .classifier import (ClassLabel, classify_tenfold, classify_threefold,
                         label)
from .errors import (DegenerateDecompositionError, GroupTooLargeError,
                     InconsistentSymmetryError, InputShapeError,
                     NotDefiniteTypeError, NotInManifoldError,
                     NotInvolutiveError, NotPureTensorError,
                     NotQuadraticError, SpecFileError,
                     SymmetryConsistencyError, TenfoldError,
                     UnsupportedConfigurationError, UnsupportedFamilyError,
                     UnsupportedModeError)
from .specfile import parse_spec, read_samples, write_samples

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3
EXIT_UNSUPPORTED = 4
EXIT_INVARIANT = 5


def _parse_dims(text):
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputShapeError(f"cannot parse dims {text!r}")
    if len(dims) not in (1, 2):
        raise InputShapeError("dims must be N or p,q")
    return dims


def _label_from_args(args):
    return ClassLabel(family=args.family, dims=_parse_dims(args.dims))


def cmd_classify(args):
    parsed = parse_spec(args.spec)
    rng = linalg.RngStream(args.seed if args.seed is not None
                           else parsed.seed)
    tenfold_mode = (args.tenfold or parsed.declared_kind == "nambu" or
                    parsed.setting.particle_hole is not None)
    if tenfold_mode:
        report = classify_tenfold(parsed.setting, rng)
    else:
        report = classify_threefold(parsed.setting, rng)
    if args.json:
        payload = report.as_dict()
        payload["seed"] = rng.seed
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK


def cmd_sample(args):
    lab = _label_from_args(args)
    spec = ensembles.EnsembleSpec(label=lab, sigma=args.sigma, kind=args.kind)
    rng = linalg.RngStream(args.seed)
    if args.kind == "gaussian":
        draws = ensembles.sample_gaussian(spec, rng, size=args.count)
    else:
        draws = ensembles.sample_circular(spec, rng, size=args.count)
    matrices = [draws[i] for i in range(args.count)]

    def emit(fh):
        write_samples(fh, lab.family, lab.dims, args.kind, rng.seed, matrices)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(sys.stdout)
    return EXIT_OK


def _spectra_from_matrices(meta, matrices):
    if meta.get("kind") == "circular":
        return [np.sort(np.angle(np.linalg.eigvals(m))) for m in matrices]
    return [np.linalg.eigvalsh(m) for m in matrices]


def cmd_stats(args):
    rng = linalg.RngStream(args.seed)
    if args.infile:
        meta, matrices = read_samples(args.infile)
        if not matrices:
            raise SpecFileError("$", "sample file holds no records")
        spectra = _spectra_from_matrices(meta, matrices)
    elif args.poisson:
        spectra = np.sort(rng.generator.uniform(
            size=(args.count, args.poisson)), axis=1)
    elif args.family and args.dims:
        lab = _label_from_args(args)
        spec = ensembles.EnsembleSpec(label=lab, sigma=args.sigma,
                                      kind=args.kind)
        if args.kind == "gaussian":
            draws = ensembles.sample_gaussian(spec, rng, size=args.count)
            spectra = np.linalg.eigvalsh(draws)
        else:
            draws = ensembles.sample_circular(spec, rng, size=args.count)
            spectra = np.stack([np.sort(np.angle(np.linalg.eigvals(m)))
                                for m in draws])
    else:
        raise InputShapeError("need --in, --poisson, or --class/--dims")
    stats = ensembles.pooled_spacing_ratios(np.asarray(spectra))
    lines = [f"# tenfold stats seed={rng.seed}",
             "statistic,value,stderr",
             f"mean_r,{stats.mean!r},{stats.stderr!r}",
             f"dropped_spacings,{stats.dropped},0"]
    if args.bins:
        hist = ensembles.spectral_density(np.asarray(spectra), args.bins)
        lines.append("bin_center,density")
        for c, d in zip(hist.centers, hist.density):
            lines.append(f"{float(c)!r},{float(d)!r}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args):
    if args.spec:
        parsed = parse_spec(args.spec)
        tenfold_mode = (args.tenfold or parsed.declared_kind == "nambu" or
                        parsed.setting.particle_hole is not None)
        results = verify.run_setting_checks(parsed, tenfold_mode)
    elif args.all_classes:
        results = verify.run_checks(args.level)
    else:
        raise InputShapeError("need a spec path or --all-classes")
    failures = []
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print("failed invariants: " + ", ".join(failures))
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_fock_verify(args):
    n = args.modes
    rng = linalg.RngStream(args.seed)
    fock = focklab.build_fock(n)
    results = []

    worst_car = verify.car_residual(fock)
    results.append(("fock.car", worst_car <= 1e-12,
                    f"residual {worst_car:.2e}"))

    c_op = focklab.particle_hole(fock)
    square = c_op.u @ np.conj(c_op.u)
    law_ok = True
    for state in range(fock.dim):
        occ = int(fock.occupation[state])
        expected = (-1.0) ** (occ * (n - occ))
        if abs(square[state, state] - expected) > 1e-12:
            law_ok = False
    results.append(("fock.C2-sign-law", law_ok, "(-1)^(n(N-n)) per level"))

    worst_def = 0.0
    omega = np.zeros(fock.dim, dtype=complex)
    omega[fock.top_index] = 1.0
    for _ in range(args.trials):
        deg = int(rng.generator.integers(0, n + 1))
        idx = np.nonzero(fock.occupation == deg)[0]
        psi = np.zeros(fock.dim, dtype=complex)
        phi = np.zeros(fock.dim, dtype=complex)
        psi[idx] = rng.complex_normal(len(idx))
        phi[idx] = rng.complex_normal(len(idx))
        lhs = focklab.wedge(fock, c_op.apply(psi), phi)
        rhs = np.vdot(psi, phi) * omega
        worst_def = max(worst_def, float(np.linalg.norm(lhs - rhs)))
    results.append(("fock.defining-property", worst_def <= 1e-10,
                    f"residual {worst_def:.2e}"))

    worst_cov = 0.0
    two_to_one = True
    for _ in range(args.trials):
        w = ensembles.sample_gaussian(
            ensembles.EnsembleSpec(label("A", n)), rng)
        b = rng.complex_normal((n, n))
        z = 0.5 * (b - b.T)
        h = focklab.lift_one_body(fock, w, z)
        record = focklab.covering_check(fock, h, w, z)
        worst_cov = max(worst_cov, record.generator_residual,
                        record.orthogonality_residual,
                        abs(record.determinant - 1.0))
        two_to_one = two_to_one and record.sign_invariant
    results.append(("fock.covering-generator", worst_cov <= 1e-9,
                    f"residual {worst_cov:.2e}"))
    results.append(("fock.covering-two-to-one", two_to_one,
                    "rotation of -U identical"))

    if n >= 2:
        s = np.diag([1.0] * (n // 2) + [-1.0] * (n - n // 2)).astype(complex)
    else:
        s = np.eye(1, dtype=complex)
    record = focklab.twisted_ph_transfer_check(fock, s)
    results.append(("fock.twisted-transfer", record.passed,
                    f"max residual {record.max_residual:.2e}"))

    failures = []
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print("failed invariants: " + ", ".join(failures))
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tenfold",
        description="Classify symmetry settings into the ten symmetry "
                    "classes and sample the matching random-matrix "
                    "ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a symmetry spec file")
    p.add_argument("spec")
    p.add_argument("--tenfold", action="store_true",
                   help="promote to Nambu space and use the tenfold table")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample", help="draw ensemble samples")
    p.add_argument("--class", dest="family", required=True,
                   choices=("A", "AI", "AII", "C", "CI", "D", "DIII",
                            "AIII", "BDI", "CII"))
    p.add_argument("--dims", required=True, help="N or p,q")
    p.add_argument("--kind", choices=("gaussian", "circular"),
                   default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="spacing-ratio and density statistics")
    p.add_argument("--in", dest="infile", default=None,
                   help="sample file produced by the sample command")
    p.add_argument("--class", dest="family", default=None,
                   choices=("A", "AI", "AII", "C", "CI", "D", "DIII",
                            "AIII", "BDI", "CII"))
    p.add_argument("--dims", default=None)
    p.add_argument("--kind", choices=("gaussian", "circular"),
                   default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--poisson", type=int, default=0,
                   help="synthetic iid-uniform spectra with this many levels")
    p.add_argument("--bins", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("--all-classes", action="store_true")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--tenfold", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fock-verify", help="run the Fock-space oracle")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fock_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        linalg.input_tol()  # raises on a malformed TENFOLD_TOLERANCE
        return args.func(args)
    except SpecFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NotInvolutiveError, SymmetryConsistencyError,
            InconsistentSymmetryError, NotPureTensorError) as err:
        print(f"symmetry-consistency error: {err}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except UnsupportedConfigurationError as err:
        print(f"unsupported configuration: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (InputShapeError, GroupTooLargeError, UnsupportedFamilyError,
            UnsupportedModeError, NotDefiniteTypeError,
            NotInManifoldError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateDecompositionError, NotQuadraticError,
            TenfoldError) as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
