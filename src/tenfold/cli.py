"""Command-line surface: classify, sample, stats, verify, fock-verify.

Exit codes (each error class states its own in ``tenfold.errors``): 0
success, 2 input or schema error, 3 symmetry-consistency error, 4
unsupported configuration, 5 invariant failure.  A reader that closes
standard output early ends the command with exit code 0.  All outputs
are deterministic functions of the inputs, flags and seed; the seed
defaults to 0 and is echoed in every output header.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import ensembles, linalg, verify
from .classifier import (FAMILIES, ClassLabel, classify_tenfold,
                         classify_threefold)
from .errors import InputShapeError, SpecFileError, TenfoldError
from .specfile import parse_spec, read_samples, write_samples

# stats --bins peaks at about 160 bytes a bin, most of it the text rows
# and their join; the bins are counted at that against the array cap
_BIN_BYTES = 160


def _parse_dims(text):
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputShapeError(f"cannot parse dims {text!r}")
    if len(dims) not in (1, 2):
        raise InputShapeError("dims must be N or p,q")
    return dims


def _tenfold_mode(args, parsed):
    """Tenfold when asked for, declared, or implied by a twist S."""
    return (args.tenfold or parsed.declared_kind == "nambu" or
            parsed.setting.particle_hole is not None)


def cmd_classify(args):
    parsed = parse_spec(args.spec)
    rng = linalg.RngStream(args.seed if args.seed is not None
                           else parsed.seed)
    report = (classify_tenfold if _tenfold_mode(args, parsed) else
              classify_threefold)(parsed.setting, rng)
    print(json.dumps(report.as_dict() | {"seed": rng.seed}, sort_keys=True)
          if args.json else "\n".join(report.lines()))
    return 0


def _draw(args, rng):
    lab = ClassLabel(family=args.family, dims=_parse_dims(args.dims))
    spec = ensembles.EnsembleSpec(label=lab, sigma=args.sigma, kind=args.kind)
    if args.kind == "gaussian":
        return lab, ensembles.sample_gaussian(spec, rng, size=args.count)
    return lab, ensembles.sample_circular(spec, rng, size=args.count)


def cmd_sample(args):
    rng = linalg.RngStream(args.seed)
    lab, draws = _draw(args, rng)
    if not args.out:
        write_samples(sys.stdout, lab.family, lab.dims, args.kind, rng.seed,
                      draws)
        return 0
    try:  # opening and writing, as on a full disk
        with open(args.out, "w", encoding="utf-8") as fh:
            write_samples(fh, lab.family, lab.dims, args.kind, rng.seed, draws)
    except OSError as err:
        raise SpecFileError("--out", f"cannot write {args.out}: {err.strerror}")
    return 0


def _spectra(kind, stack):
    if kind == "circular":
        return np.sort(np.angle(np.linalg.eigvals(stack)), axis=-1)
    return np.linalg.eigvalsh(stack)


def cmd_stats(args):
    if args.bins < 0:
        raise InputShapeError("--bins must not be negative")
    if args.bins * _BIN_BYTES > linalg.MAX_ARRAY_BYTES:
        raise InputShapeError(
            f"--bins {args.bins} needs about {args.bins * _BIN_BYTES} bytes, "
            f"above the limit of {linalg.MAX_ARRAY_BYTES} bytes")
    rng = linalg.RngStream(args.seed)
    if args.infile:
        meta, matrices = read_samples(args.infile)
        stack, kind = np.asarray(matrices), meta["kind"]
        adj = stack.conj().swapaxes(1, 2)
        # the eigensolver that kind picks needs Hermitian or unitary records
        with np.errstate(over="ignore", invalid="ignore"):  # norms past 1e308
            if kind == "gaussian":
                resid = (linalg.frob_each(stack - adj) /
                         np.maximum(1.0, linalg.frob_each(stack)))
            else:
                resid = linalg.frob_each(adj @ stack - np.eye(stack.shape[1]))
        bad = np.flatnonzero(~(resid <= linalg.input_tol()))
        if bad.size:
            raise SpecFileError(f"record[{bad[0]}]", "must be Hermitian" if
                                kind == "gaussian" else "must be unitary")
        spectra = _spectra(kind, stack)
    elif args.poisson:
        if args.poisson < 0:
            raise InputShapeError("--poisson must not be negative")
        if args.count * args.poisson * 8 > linalg.MAX_ARRAY_BYTES:
            raise InputShapeError(
                f"{args.count} Poisson spectra of {args.poisson} levels "
                f"exceed the limit of {linalg.MAX_ARRAY_BYTES} bytes")
        spectra = np.sort(rng.generator.uniform(
            size=(args.count, args.poisson)), axis=1)
    elif args.family and args.dims:
        spectra = _spectra(args.kind, _draw(args, rng)[1])
    else:
        raise InputShapeError("need --in, --poisson, or --class/--dims")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
        bad = np.flatnonzero(~np.isfinite(spectra[:, -1] - spectra[:, 0]))
    if bad.size and args.infile:
        raise SpecFileError(f"record[{bad[0]}]", "its eigenvalues or their "
                            "range overflow to non-finite values")
    if bad.size:
        raise InputShapeError(f"sigma {args.sigma:g} overflows the spectra "
                              "to non-finite values")
    stats = ensembles.pooled_spacing_ratios(spectra)
    lines = [f"# tenfold stats seed={rng.seed}",
             "statistic,value,stderr",
             f"mean_r,{stats.mean!r},{stats.stderr!r}",
             f"dropped_spacings,{stats.dropped},0"]
    if args.bins:
        hist = ensembles.spectral_density(spectra, args.bins)
        lines.append("bin_center,density")
        for c, d in zip(hist.centers, hist.density):
            lines.append(f"{float(c)!r},{float(d)!r}")
    print("\n".join(lines))
    return 0


def _report(results):
    """Print one line per check; a failed one exits as a failed invariant."""
    failures = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failures:
        print("failed invariants: " + ", ".join(failures))
        return TenfoldError.exit_code
    return 0


def _refuse_flags(form, flags):
    """Exit 2 naming the first given flag that this verify form ignores."""
    for flag, given in flags:
        if given:
            raise InputShapeError(f"{flag} does not apply to verify {form}")


def cmd_verify(args):
    if args.spec:
        _refuse_flags("SPEC", [("--all-classes", args.all_classes),
                               ("--level", args.level)])
        parsed = parse_spec(args.spec)
        return _report(verify.run_setting_checks(parsed,
                                                 _tenfold_mode(args, parsed)))
    if args.all_classes:
        _refuse_flags("--all-classes", [("--tenfold", args.tenfold)])
        return _report(verify.run_checks(args.level or "fast"))
    raise InputShapeError("need a spec path or --all-classes")


def cmd_fock_verify(args):
    return _report(verify.run_fock_checks(args.modes, args.trials,
                                          args.seed))


def _ensemble_arguments(p, required, count):
    """The options that ``sample`` and ``stats`` share."""
    p.add_argument("--class", dest="family", required=required,
                   choices=FAMILIES)
    p.add_argument("--dims", required=required, help="N or p,q")
    p.add_argument("--kind", choices=("gaussian", "circular"),
                   default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--count", type=int, default=count)
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
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
    _ensemble_arguments(p, required=True, count=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="spacing-ratio and density statistics")
    p.add_argument("--in", dest="infile", default=None,
                   help="sample file produced by the sample command")
    _ensemble_arguments(p, required=False, count=1000)
    p.add_argument("--poisson", type=int, default=0,
                   help="synthetic iid-uniform spectra with this many levels")
    p.add_argument("--bins", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("--all-classes", action="store_true")
    p.add_argument("--level", choices=("fast", "full"), default=None)
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
        for flag in ("count", "trials"):
            if getattr(args, flag, 1) < 1:
                raise InputShapeError(f"--{flag} must be at least 1")
        if not 0 <= (getattr(args, "seed", None) or 0) < 1 << 64:
            raise SpecFileError("--seed", "must be an integer in [0, 2^64)")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except TenfoldError as err:  # its class carries the exit code
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code
    except BrokenPipeError:  # the reader stopped; exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
