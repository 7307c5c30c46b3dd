"""Command line front end: one-shot queries, batch verification with a
resumable JSONL cache, and report serialization.

Exit codes: 0 when the requested check succeeds or finds nothing
anomalous, 2 when a counterexample or anomaly is found, 1 for usage or
runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import __version__
from .classify import (
    NormalizedQuad,
    Pattern,
    classify_pattern,
    gcd_profile,
    normalize_quad,
)
from .errors import CacheConfigMismatch, UsageError, ZsIndexError
from .lemmas import _conditions, assumption_b, compute_k1, compute_s, omega_build
from .sequences import GroupSequence, index_of
from .verifier import (
    Counterexample,
    _theorem21_moduli,
    enumerate_minimal_quads,
    search_high_index,
    validate_lemmas,
    validate_remark32,
    validate_theorem21,
    verify_many,
)
from .zncore import factorize, modulus_range

_FORMATS = ("json", "csv", "text")
# Hashed into every cache digest.  Bump it when a cached row's meaning
# changes (the record fields, or what verify_conjecture counts as a
# class) so that rows written under the old meaning are recomputed.
_CACHE_SCHEMA = 1
# The fields of a verify row that a cache line stores.
_ROW_FIELDS = ("n", "status", "class_count", "max_index", "elapsed_ms")
_CSV_COLUMNS = _ROW_FIELDS + ("from_cache",)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; remap through UsageError."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zsindex", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=_FORMATS, default="json")
        p.add_argument("--output", default=None, help="write the report here")

    p = sub.add_parser("index", help="exact index of one or more sequences")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", help="comma separated residues")
    p.add_argument("--file", help="one comma separated sequence per line")
    common(p)

    p = sub.add_parser("classify", help="gcd pattern of a minimal quad")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", required=True)
    common(p)

    p = sub.add_parser("normalize", help="normal form of a minimal quad")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", required=True)
    common(p)

    p = sub.add_parser("lemma", help="index-1 conditions on a normal form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--omega", action="store_true", help="include the interval system")
    common(p)

    p = sub.add_parser("enumerate", help="canonical minimal quad classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--require-coprime-element", action="store_true")
    p.add_argument("--require-reduced", action="store_true")
    p.add_argument("--pattern", choices=[pat.value for pat in Pattern])
    p.add_argument("--limit", type=int, default=None)
    common(p)

    p = sub.add_parser("verify", help="exhaustive index check over a range of n")
    p.add_argument("--min", type=int, default=5)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--coprime-to-6", action="store_true")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--cache", default=None, help="append-only JSONL cache path")
    p.add_argument("--strict-cache", action="store_true")
    common(p)

    p = sub.add_parser("search", help="hunt for classes with index >= bound")
    p.add_argument("--min", type=int, default=5)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--min-index", type=int, default=2)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("validate", help="run one of the empirical validators")
    p.add_argument(
        "--target", choices=("theorem21", "lemmas", "remark32"), required=True
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--min", type=int, default=None)
    p.add_argument("--max", type=int, default=None)
    common(p)

    return parser


def _parse_seq(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse sequence {text!r}") from None


def _frac(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def _cex_payload(cex) -> dict:
    return {
        "n": cex.n,
        "class": list(cex.elems),
        "index": _frac(cex.index_value),
        "context": cex.context,
        "detail": cex.detail,
    }


def _jsonable(obj):
    """json.dumps fallback: a counterexample as its report row, any other
    dataclass as its fields in declaration order (not recursively, as
    asdict would, so nested counterexamples come back here), else str."""
    if isinstance(obj, Counterexample):
        return _cex_payload(obj)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    return str(obj)


def _emit(payload, args, text_lines, csv_rows=None) -> None:
    """Render the report in the requested format to --output or stdout.

    text_lines must be nonempty: a command with no results says so in a
    line of its own.  csv_rows (header first) is given only by commands
    that support csv.
    """
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, default=_jsonable) + "\n"
    elif args.format == "text":
        rendered = "\n".join(text_lines) + "\n"
    elif csv_rows is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        rendered = buf.getvalue()
    else:
        raise UsageError("csv format is only supported for the verify command")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _resolve_jobs(requested: int | None) -> int:
    if requested is not None:
        if requested < 1:
            raise UsageError("--jobs must be >= 1")
        return requested
    env = os.environ.get("ZSINDEX_JOBS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"ZSINDEX_JOBS={env!r} is not an integer") from None
        if value < 1:
            raise UsageError(f"ZSINDEX_JOBS={env!r} must be >= 1")
        return value
    return os.cpu_count() or 1


def _config_digest() -> str:
    fields = {"command": "verify", "schema": _CACHE_SCHEMA, "version": __version__}
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load_cache(path: str, digest: str, strict: bool) -> dict[int, dict]:
    """Records from an existing cache that match the current digest.

    A corrupt trailing line (crash during append) is cut off the file
    with a warning, by truncating at its first byte so the lines before
    it are never rewritten; corrupt interior lines are skipped in memory
    only.  Error records are never reused, so failed n values rerun; a
    line that is not a record with an integer n and a verified or
    counterexample status, or such a record whose class_count or
    max_index is not an integer, is reported as malformed and its n
    reruns.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        lines = fh.readlines()
    records: dict[int, dict] = {}
    truncate_at = None
    for i, raw in enumerate(lines):
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                truncate_at = i
                print(
                    f"warning: dropping corrupt trailing cache line {i + 1}",
                    file=sys.stderr,
                )
            else:
                print(
                    f"warning: skipping corrupt cache line {i + 1}", file=sys.stderr
                )
            continue
        if isinstance(rec, dict) and rec.get("config_digest") != digest:
            if strict:
                raise CacheConfigMismatch(
                    f"cache line {i + 1} was written under config "
                    f"{rec.get('config_digest')!r}, current is {digest!r}"
                )
            continue
        try:
            n, status = rec["n"], rec["status"]
        except (KeyError, TypeError):
            n = status = None
        well_formed = type(n) is int and (
            status == "error"
            or (
                status in ("verified", "counterexample")
                and all(type(rec.get(f)) is int for f in ("class_count", "max_index"))
            )
        )
        if not well_formed:
            print(f"warning: malformed cache record on line {i + 1}", file=sys.stderr)
        elif status != "error":
            records[n] = rec
    if truncate_at is not None:
        os.truncate(path, sum(len(raw) for raw in lines[:truncate_at]))
    return records


def cmd_index(args) -> int:
    mod = factorize(args.n)
    if bool(args.seq) == bool(args.file):
        raise UsageError("provide exactly one of --seq or --file")
    if args.seq:
        batches = [_parse_seq(args.seq)]
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            batches = [_parse_seq(line) for line in fh if line.strip()]
    results = []
    for values in batches:
        seq = GroupSequence.of(mod, values)
        res = index_of(seq)
        results.append(
            {
                "n": args.n,
                "seq": list(seq.elems),
                "ind": _frac(res.value),
                "witness_t": res.witness_t,
                "integral": res.is_integer,
            }
        )
    payload = results[0] if args.seq else {"n": args.n, "results": results}
    lines = [
        f"n={r['n']} seq={','.join(map(str, r['seq']))} ind={r['ind']} "
        f"witness_t={r['witness_t']}"
        for r in results
    ] or ["no sequences"]
    _emit(payload, args, lines)
    return 0


def cmd_classify(args) -> int:
    seq = GroupSequence.of(factorize(args.n), _parse_seq(args.seq))
    profile = gcd_profile(seq)
    cls = classify_pattern(seq)
    payload = {
        "n": args.n,
        "seq": list(seq.elems),
        "pattern": cls.pattern.value,
        "prime_roles": list(cls.prime_roles) if cls.prime_roles else None,
        "gcds": list(profile.gcds),
        "global_gcd": profile.global_gcd,
    }
    _emit(payload, args, [f"pattern={cls.pattern.value} gcds={profile.gcds}"])
    return 0


def cmd_normalize(args) -> int:
    seq = GroupSequence.of(factorize(args.n), _parse_seq(args.seq))
    quad = normalize_quad(seq)
    if quad is None:
        payload = {"n": args.n, "seq": list(seq.elems), "normal_form": None}
        _emit(payload, args, ["no normal form"])
        return 0
    payload = {
        "n": args.n,
        "seq": list(seq.elems),
        "normal_form": {"a": quad.a, "b": quad.b, "c": quad.c},
        "unit": quad.unit,
        "reflected": quad.reflected,
    }
    _emit(
        payload,
        args,
        [
            f"a={quad.a} b={quad.b} c={quad.c} unit={quad.unit} "
            f"reflected={quad.reflected}"
        ],
    )
    return 0


def cmd_lemma(args) -> int:
    factorize(args.n)
    quad = NormalizedQuad(args.n, args.a, args.b, args.c)
    outcomes = _conditions(quad)
    structure: dict = {"s": compute_s(quad), "assumption_b": assumption_b(quad)}
    try:
        structure["k1"] = compute_k1(quad)
    except ZsIndexError as exc:
        structure["k1"] = None
        structure["k1_note"] = f"{type(exc).__name__}: {exc}"
    payload = {
        "n": args.n,
        "a": args.a,
        "b": args.b,
        "c": args.c,
        "conditions": [
            {
                "lemma": o.lemma_id,
                "fired": o.fired,
                "witness": list(o.witness) if o.witness is not None else None,
                "detail": o.detail,
            }
            for o in outcomes
        ],
        "structure": structure,
    }
    if args.omega:
        payload["omega"] = omega_build(quad)
    lines = [
        f"{o.lemma_id}: fired={o.fired} witness={o.witness}" for o in outcomes
    ] + [f"structure: {structure}"]
    _emit(payload, args, lines)
    return 0


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    pattern = Pattern(args.pattern) if args.pattern else None
    stream = enumerate_minimal_quads(
        args.n,
        require_coprime_element=args.require_coprime_element,
        require_reduced=args.require_reduced,
        pattern=pattern,
    )
    classes = [list(seq.elems) for seq in itertools.islice(stream, args.limit)]
    payload = {
        "n": args.n,
        "filters": {
            "require_coprime_element": args.require_coprime_element,
            "require_reduced": args.require_reduced,
            "pattern": args.pattern,
        },
        "count": len(classes),
        "classes": classes,
    }
    lines = [",".join(map(str, cls)) for cls in classes] or ["no classes"]
    _emit(payload, args, lines)
    return 0


def cmd_verify(args) -> int:
    if args.min < 2 or args.min > args.max:
        raise UsageError("need 2 <= --min <= --max")
    jobs = _resolve_jobs(args.jobs)
    digest = _config_digest()
    ns = [
        n
        for n in modulus_range(args.min, args.max)
        if not args.coprime_to_6 or math.gcd(n, 6) == 1
    ]
    cached = (
        _load_cache(args.cache, digest, args.strict_cache) if args.cache else {}
    )
    rows = {
        n: {**{f: cached[n].get(f) for f in _ROW_FIELDS}, "from_cache": True}
        for n in ns
        if n in cached
    }
    remaining = [n for n in ns if n not in rows]
    cache_fh = open(args.cache, "a", encoding="utf-8") if args.cache else None

    def on_result(n, report, error):
        if error is not None:
            print(f"warning: n={n} failed: {error}", file=sys.stderr)
            row = dict.fromkeys(_ROW_FIELDS)
            row.update(n=n, status="error", from_cache=False, detail=error)
        else:
            row = {
                "n": n,
                "status": "counterexample" if report.counterexamples else "verified",
                "class_count": report.class_count,
                "max_index": report.max_index,
                "elapsed_ms": int(report.elapsed * 1000),
                "from_cache": False,
            }
            if report.counterexamples:
                row["counterexamples"] = report.counterexamples
        rows[n] = row
        if cache_fh is not None:
            record = {f: row[f] for f in _ROW_FIELDS}
            record.update(version=__version__, config_digest=digest)
            cache_fh.write(json.dumps(record, sort_keys=True) + "\n")
            cache_fh.flush()

    try:
        verify_many(remaining, jobs=jobs, on_result=on_result)
    finally:
        if cache_fh is not None:
            cache_fh.close()

    results = [rows[n] for n in ns]
    statuses = {row["status"] for row in results}
    payload = {
        "command": "verify",
        "min": args.min,
        "max": args.max,
        "coprime_to_6": args.coprime_to_6,
        "version": __version__,
        "config_digest": digest,
        "jobs": jobs,
        "count": len(results),
        "all_verified": statuses <= {"verified"},
        "results": results,
    }
    lines = [
        f"n={row['n']} {row['status']} classes={row['class_count']} "
        f"max_index={row['max_index']}"
        for row in results
    ] + [f"all_verified={payload['all_verified']}"]
    csv_rows = [_CSV_COLUMNS] + [
        [row.get(col) for col in _CSV_COLUMNS] for row in results
    ]
    _emit(payload, args, lines, csv_rows)
    if "error" in statuses:
        return 1
    return 2 if "counterexample" in statuses else 0


def cmd_search(args) -> int:
    hits = search_high_index(
        args.min,
        args.max,
        args.k,
        min_index=args.min_index,
        mode=args.mode,
        limit=args.limit,
        samples=args.samples,
        seed=args.seed,
    )
    payload = {
        "command": "search",
        "min": args.min,
        "max": args.max,
        "k": args.k,
        "min_index": args.min_index,
        "mode": args.mode,
        "count": len(hits),
        "hits": hits,
    }
    lines = [
        f"n={h.n} class={','.join(map(str, h.elems))} index={_frac(h.index_value)}"
        for h in hits
    ] or ["no hits"]
    _emit(payload, args, lines)
    return 2 if hits else 0


def cmd_validate(args) -> int:
    if args.target == "remark32":
        if args.min is None or args.max is None:
            raise UsageError("remark32 needs --min and --max")
        report = validate_remark32(args.min, args.max)
        payload = {"target": "remark32", **_jsonable(report)}
        anomalies = len(report.violations)
        lines = [
            f"moduli={len(report.checked_moduli)} qualifying="
            f"{report.qualifying_count} violations={anomalies}"
        ]
        _emit(payload, args, lines)
        return 2 if anomalies else 0

    theorem21 = args.target == "theorem21"
    if args.n is not None:
        ns = [args.n]
    elif args.min is not None and args.max is not None:
        ns = (_theorem21_moduli if theorem21 else modulus_range)(args.min, args.max)
    else:
        raise UsageError(f"{args.target} needs --n or both --min and --max")

    reports = [(validate_theorem21 if theorem21 else validate_lemmas)(n) for n in ns]
    if theorem21:
        anomalies = sum(len(r.anomalies) for r in reports)
        lines = [
            f"n={r.n} qualifying={r.qualifying_count} census={r.census} "
            f"anomalies={len(r.anomalies)}"
            for r in reports
        ] or ["no moduli"]
    else:
        anomalies = sum(
            sum(len(v) for v in r.violations.values())
            + len(r.probe_s_violations)
            + len(r.probe_k1_violations)
            for r in reports
        )
        lines = [
            f"n={r.n} quads={r.quad_count} fired={r.fired} "
            f"violations={ {k: len(v) for k, v in r.violations.items()} } "
            f"findings_34={len(r.findings_34)}"
            for r in reports
        ] or ["no moduli"]
    payload = {"target": args.target, "anomaly_count": anomalies, "reports": reports}
    _emit(payload, args, lines)
    return 2 if anomalies else 0


_HANDLERS = {
    "index": cmd_index,
    "classify": cmd_classify,
    "normalize": cmd_normalize,
    "lemma": cmd_lemma,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "search": cmd_search,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except ZsIndexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
