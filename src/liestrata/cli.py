"""Command-line front end.

Commands: analyze, jacobi, isomorphic, sweep, cross-section.  Exit codes:
0 success, 1 stdout closed by its reader, 2 input or parse error, 3
violated precondition (mode, caps, center point, unsupported shapes), 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import cross_sections as cs
from .errors import (CapExceededError, DimensionMismatchError,
                     MalformedInputError, ModeError, OutsideDomainError,
                     StratumError, UnsupportedShapeError)
from .report import (build_analysis_report, build_cross_section_report,
                     build_isomorphism_report, render_text, SWEEP_SCHEMA)
from .sweep import sweep_counts, sweep_strata
from .triples import (IndexSet, StructureVector, enumerate_theta,
                      index_set_document, parse_document, split_entries)

PRECONDITION_ERRORS = (ModeError, CapExceededError, OutsideDomainError,
                       UnsupportedShapeError)
# every other StratumError is an input error
INPUT_ERRORS = (StratumError, json.JSONDecodeError, OSError)


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path}: not UTF-8 text ({exc.reason})") \
            from None


# Most digits of a rational literal's numerator and denominator, and so the
# largest exponent: CPython's default int-string limit.  Beyond it a value
# cannot be printed, and a large exponent alone takes unbounded time to
# expand.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")
# Most characters of a literal that an error message echoes.
_SHOWN = 40


def _fraction(text) -> Fraction:
    """An exact rational from the command line or an input file.

    A bad literal, a zero denominator, an exponent above
    MAX_LITERAL_DIGITS and a numerator or denominator of more digits raise
    MalformedInputError (exit 2).  The digits and the exponent are counted
    before the literal is parsed, and the message echoes at most _SHOWN of
    its characters.
    """
    literal = str(text)
    shown = repr(literal) if len(literal) <= _SHOWN \
        else repr(literal[:_SHOWN]) + "…"
    if any(sum(map(str.isdecimal, part)) > MAX_LITERAL_DIGITS
           for part in literal.split("/")):
        raise MalformedInputError(
            f"more than {MAX_LITERAL_DIGITS} digits in {shown}")
    try:
        exp = _EXPONENT.search(literal)
        if exp and abs(int(exp[1])) > MAX_LITERAL_DIGITS:
            raise MalformedInputError(f"exponent too large in {shown}")
        value = Fraction(text)
    except ZeroDivisionError:
        raise MalformedInputError(f"zero denominator in {shown}") from None
    except ValueError:
        raise MalformedInputError(f"not a rational number: {shown}") from None
    if max(abs(value.numerator), value.denominator) >= _LITERAL_BOUND:
        raise MalformedInputError(
            f"more than {MAX_LITERAL_DIGITS} digits in {shown}")
    return value


def load_input(path: str) -> tuple[IndexSet, dict[str, StructureVector]]:
    """Index set plus named structure vectors from a text or JSON file."""
    lam, raw = parse_document(_read_source(path))
    return lam, {name: StructureVector(lam, tuple(map(_fraction, vals)))
                 for name, vals in raw.items()}


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(render_text(doc))


def _spec_from_args(lam: IndexSet, args) -> cs.CrossSectionSpec:
    a0 = None
    if args.center is not None:
        a0 = list(map(_fraction, split_entries(args.center)))
    return cs.cross_section(lam, a0=a0, p=_fraction(args.exponent))


def cmd_analyze(args) -> int:
    lam, _ = load_input(args.input)
    doc = build_analysis_report(lam, with_cross_section=args.cross_section)
    _emit(doc, args.format)
    return 0


def cmd_jacobi(args) -> int:
    from .jacobi import format_system, obstruction_status

    lam, _ = load_input(args.input)
    doc = {
        "schema": "jacobi-report/1",
        **index_set_document(lam),
        "obstruction": obstruction_status(lam),
        "equations": format_system(lam),
    }
    _emit(doc, args.format)
    return 0


def cmd_isomorphic(args) -> int:
    lam, vectors = load_input(args.input)
    if "a" not in vectors or "b" not in vectors:
        raise DimensionMismatchError(
            "isomorphic needs two labelled vectors 'a:' and 'b:'")
    doc = build_isomorphism_report(vectors["a"], vectors["b"])
    _emit(doc, args.format)
    return 0


def cmd_cross_section(args) -> int:
    lam, _ = load_input(args.input)
    spec = _spec_from_args(lam, args)
    doc = build_cross_section_report(spec, c=_fraction(args.c))
    _emit(doc, args.format)
    return 0


def _nested(value, depth: int) -> str:
    """``value`` as ``json.dumps(doc, indent=2)`` writes it at that depth."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


@lru_cache(maxsize=8)
def _triple_fragments(n: int) -> tuple[list[str], ...]:
    """Each theta triple's text by its index, led by what goes before it
    as a stratum's first and as a later triple: structured at depth 4,
    then plain.  Rendered once per n in each process that renders a sweep.
    """
    theta = enumerate_theta(n)
    structured = [_nested(list(t), 4) for t in theta]
    plain = [str(t) for t in theta]
    return (['{\n      "triples": [\n        ' + t for t in structured],
            [",\n        " + t for t in structured], plain,
            [" " + t for t in plain])


def _task_items(records, first, rest, empty, tail, sep,
                lead="") -> list[tuple]:
    """One task's items (text, obstruction, classification, multiplicities),
    one per record.  The first carries the whole task's text, built in one
    join: ``lead``, then the entries with ``sep`` between them; the others
    carry "", and equal ones are one tuple, which pickle sends once.

    An entry is ``first`` of its first theta index (``empty`` for the empty
    stratum), ``rest`` of each later one, and ``tail(obstruction,
    classification, multiplicities)``, rendered once per distinct key.
    """
    known: dict = {}
    parts = [lead]
    append, later = parts.append, rest.__getitem__
    items = []
    for record in records:
        indices, key = record[0], record[1:]
        found = known.get(key)
        if found is None:
            found = known[key] = (tail(*key) + sep, ("", *key))
        if indices:
            append(first[indices[0]])
            parts += map(later, indices[1:])
        else:
            append(empty)
        append(found[0])
        items.append(found[1])
    if items:
        parts[-1] = parts[-1].removesuffix(sep)
        items[0] = ("".join(parts), *items[0][1:])
    return items


def _render_entries(records, n: int) -> list[tuple]:
    """A task's records as _task_items: its text is the task's elements of
    the "strata" list at depth 2, with the document's separators between
    them."""
    first, rest = _triple_fragments(n)[:2]
    size = len(records[0][0]) if records else 0
    close = "\n      ]," if size else ","

    def tail(obstruction, classification, mults):
        return close + _nested({
            "size": size, "obstruction": obstruction,
            "classification": classification,
            "multiplicities": list(mults)}, 2)[1:]

    return _task_items(records, first, rest, '{\n      "triples": []', tail,
                       ",\n    ")


def _render_lines(records, n: int) -> list[tuple]:
    """A task's records as _task_items: its text is the task's lines of
    text output, each led by the task's size."""
    first, rest = _triple_fragments(n)[2:]
    head = f"size={len(records[0][0])} " if records else ""

    def tail(obstruction, classification, mults):
        cls = classification if classification is not None else "-"
        return f" obstruction={obstruction} classification={cls}\n"

    return _task_items(records, first, rest, "(empty)", tail, head, head)


def _written(stream, write, lead, sep):
    """Pass the stream's items on, writing each task's text as it passes:
    ``lead`` goes before the first text and ``sep`` before each later one.
    """
    for s in stream:
        if s[0]:
            write(lead)
            write(s[0])
            lead = sep
        yield s


def cmd_sweep(args) -> int:
    """Stream the sweep: each task's strata are written as soon as they
    arrive.

    The sweep renders each task where the task is walked, through
    _render_entries or _render_lines, into one text carried by the task's
    first item; _written, the writer of both formats, writes each such text
    with one call and feeds every item to sweep_counts.  The structured
    document is written piece by piece with the exact bytes
    ``json.dumps(doc, indent=2)`` would give, so memory stays bounded by a
    task and the bounded task list however many strata the sweep emits.
    """
    structured = args.format == "structured"
    stream = sweep_strata(
        args.n, max_size=args.max_size, size=args.size,
        filter=None if args.filter is None else args.filter.lower(),
        discard_obstructed=args.discard_obstructed,
        workers=args.workers,
        render=_render_entries if structured else _render_lines)
    out = sys.stdout
    if structured:
        head = {"schema": SWEEP_SCHEMA, "n": args.n, "size": args.size,
                "max_size": args.max_size, "filter": args.filter,
                "discard_obstructed": args.discard_obstructed}
        out.write(_nested(head, 0)[:-2] + ',\n  "strata": [')
        counts = sweep_counts(_written(stream, out.write, "\n    ",
                                       ",\n    "))
        tail = {
            "total": counts["total"],
            "obstruction": dict(sorted(counts["obstruction"].items())),
            "classification": dict(sorted(counts["classification"].items())),
        }
        out.write(("\n  ]" if counts["total"] else "]") + ',\n  "counts": '
                  + _nested(tail, 1) + "\n}\n")
        return 0
    counts = sweep_counts(_written(stream, out.write, "", ""))
    print(f"# total: {counts['total']}")
    for key in sorted(counts["obstruction"]):
        print(f"# obstruction {key}: {counts['obstruction'][key]}")
    for key in sorted(counts["classification"]):
        print(f"# classification {key}: {counts['classification'][key]}")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it reads no environment variable."""
    parser = argparse.ArgumentParser(
        prog="liestrata",
        description="Exact analysis of structure-constant strata")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    p = sub.add_parser("analyze", help="full stratum report")
    p.add_argument("input", help="index-set file, or - for stdin")
    p.add_argument("--cross-section", action="store_true",
                   help="append a default cross-section section")
    add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("jacobi", help="emit the Jacobi system")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("isomorphic",
                       help="test two structure vectors for isomorphism")
    p.add_argument("input", help="file with the index set and vectors a:, b:")
    add_format(p)
    p.set_defaults(func=cmd_isomorphic)

    p = sub.add_parser("cross-section",
                       help="cross-section report with branch solutions")
    p.add_argument("input")
    p.add_argument("--center", default=None,
                   help="comma-separated positive rationals (default all ones)")
    p.add_argument("--exponent", default="1", help="display exponent p")
    p.add_argument("--c", default="1", help="scale constant for the map F")
    add_format(p)
    p.set_defaults(func=cmd_cross_section)

    p = sub.add_parser("sweep", help="enumerate strata of Theta_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=None, help="exact size")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--filter", default=None,
                   help="obstruction status or classification label")
    p.add_argument("--discard-obstructed", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1)")
    add_format(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse on Python 3.11 reads --opt=-- as [], skipping the option's
        # type; no option here takes a list
        for name, value in vars(args).items():
            if value == []:
                raise MalformedInputError(
                    f"--{name.replace('_', '-')} needs a value")
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): not an input error.
        # What is still buffered goes to devnull, so the flush at exit stays
        # quiet; exit 1, as the signal module's documentation advises.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C: the shell's 128 + SIGINT, without a traceback
        return 130
    except PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
