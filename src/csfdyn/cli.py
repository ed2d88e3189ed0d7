"""Command line front-end: process one subject, compare a cohort, or
generate phantom datasets.

Exit codes: 0 success, 2 input error, 3 processing refusal (the data
cannot support the analysis), 4 internal failure. Values in a --config
JSON file override command line flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__, reporting
from .errors import (
    CsfdynError,
    InputError,
    InvalidSpec,
    ProcessingRefusal,
    TooFewPairs,
    UnpairedSubject,
)
from .ingest import (PhysioKind, RoiLabel, SeriesKind, coerce, map_series, read_mask,
                     read_physio, write_series)
from .ingest import read_series  # noqa: F401 -- bench/spans.py looks it up in this module
from .metrics import SvConvention, VolumeUnit
from .phantom import (
    PhantomSpec,
    cohort as phantom_cohort,
    default_aqueduct_spec,
    default_spinal_spec,
    generate,
    generate_gated,
    save_dataset,
)
from .ensemble import INTERP_MODES
from .pipeline import GATES, UNITS, PipelineParams, process_subject, result_to_report
from .reporting import (
    make_dir,
    sha256_of,
    write_curves_csv,
    write_curves_svg,
    write_json,
    write_scatter_svg,
)
from .stats import (
    SPEARMAN_EXACT_MAX_N,
    PairedSample,
    paired_t,
    spearman,
    wilcoxon_paired,
)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The csfdyn parser, and each subcommand's parser by name. It is built
    once per process (about 0.8 ms); parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="csfdyn",
        description="Post-processing for continuous phase-contrast CSF velocity series.",
    )
    parser.add_argument("--version", action="version", version=f"csfdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process", help="run the full pipeline on one subject")
    p.add_argument("--series", required=True, help=".csfd velocity/phase series")
    p.add_argument("--roi", required=True, help=".pgm mask of the flow ROI")
    p.add_argument("--static", help=".pgm mask of static tissue for offset removal")
    p.add_argument("--belt", help="respiratory belt .csv")
    p.add_argument("--plethysmo", help="plethysmograph .csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config; entries override flags")
    # defaults and allowed values come from PipelineParams, which checks
    # flags and --config entries alike
    p.add_argument("--gate", choices=GATES)
    p.add_argument("--min-rr", type=float, help="shortest cycle, ms")
    p.add_argument("--max-rr", type=float, help="longest cycle, ms")
    p.add_argument("--smoothing-window", type=float, help="belt smoothing window, ms")
    p.add_argument("--hysteresis", type=float, help="belt trigger band, fraction of range")
    p.add_argument("--interp", choices=INTERP_MODES)
    p.add_argument("--sv-convention", choices=[c.value for c in SvConvention])
    p.add_argument("--unit", choices=UNITS)
    p.add_argument("--flip-sign", action="store_true",
                   help="flip the craniocaudal sign convention")
    p.add_argument("--anchor", type=int, help="frame trusted as unaliased for unwrapping")
    p.add_argument("--refine-threshold", type=float,
                   help="grow the ROI by temporal correlation at this threshold")
    p.set_defaults(**asdict(PipelineParams()))

    c = sub.add_parser("cohort", help="paired statistics over processed subjects")
    c.add_argument("--pairs", required=True,
                   help="JSON manifest: subjects[].{id, conv, epi} report paths")
    c.add_argument("--out", required=True)
    c.add_argument("--config", help="JSON config; entries override flags")
    c.add_argument("--spearman-exact", action="store_true",
                   help="exact Spearman p, counted over all n! pairings without "
                        f"enumerating them (n <= {SPEARMAN_EXACT_MAX_N}), instead of "
                        "the t approximation")
    c.add_argument("--paired-t", action="store_true",
                   help="also report a paired Student t")

    f = sub.add_parser("phantom", help="generate a synthetic dataset with truth")
    f.add_argument("--out", required=True)
    f.add_argument("--spec", help="JSON phantom spec (defaults filled in)")
    f.add_argument("--config", help="JSON config; entries override flags")
    f.add_argument("--preset", choices=["aqueduct", "spinal"], default="aqueduct")
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--modulation", type=float, default=None,
                   help="inspiration amplitude modulation, e.g. 0.09")
    f.add_argument("--gated", action="store_true",
                   help="also write the 32-frame gated reconstruction")
    f.add_argument("--cohort", type=int, default=None, metavar="N",
                   help="write N jittered subjects instead of one")
    return parser, sub.choices


def _read_json(path: str):
    """The JSON value in the file at path: InputError if the file cannot
    be read, InvalidSpec if it is not UTF-8 JSON or nests too deeply."""
    return _read_json_bytes(path)[0]


def _read_json_bytes(path: str) -> tuple[object, bytes]:
    """As _read_json, with the bytes the value was parsed from."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8")), data
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidSpec(f"{path}: not valid JSON: {exc}") from exc


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Merge --config JSON over parsed flags (config wins).

    Each value must fit its flag as the flag's own value would: the
    flag's type (see ingest.coerce) and choices, a JSON bool for an on/off
    flag, and null only where the flag is optional and defaults to None.
    """
    if not args.config:
        return
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise InvalidSpec(f"{args.config}: config must be a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise InvalidSpec(f"{args.config}: unknown config key {key!r}")
        if value is not None or action.required or action.default is not None:
            try:
                value = coerce(bool if action.nargs == 0 else action.type or str, value)
            except ValueError as exc:
                raise InvalidSpec(f"{args.config}: {key}: {exc}") from None
            if action.choices is not None and value not in action.choices:
                raise InvalidSpec(f"{args.config}: {key}: must be one of "
                                  f"{', '.join(action.choices)}; got {value!r}")
        setattr(args, action.dest, value)


def _hash_entry(path: str) -> dict:
    return {"path": str(path), "sha256": sha256_of(path)}


def cmd_process(args: argparse.Namespace) -> int:
    params = PipelineParams(**{f.name: getattr(args, f.name) for f in fields(PipelineParams)})
    series_file = map_series(args.series)
    # one worker thread hashes the series beside everything else
    # (hashlib releases the GIL), from the moment its header, size and map
    # are checked: the value check, the other inputs and the pipeline all
    # run meanwhile. It reads the one map the frames view, since a second
    # map would count the file's pages twice toward the resident set. It
    # calls reporting.sha256_of, which bench/spans.py does not wrap.
    # Leaving the block waits for the hash; on an error, only until its
    # current slice is digested, since a refused input needs no digest.
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as pool:
        series_sha256 = pool.submit(reporting.sha256_of, series_file.mapped, stop=stop)
        try:
            series = series_file.series()
            roi = read_mask(args.roi)
            static = read_mask(args.static, RoiLabel.STATIC_TISSUE) if args.static else None
            belt = read_physio(args.belt, PhysioKind.RESP_BELT) if args.belt else None
            pleth = (read_physio(args.plethysmo, PhysioKind.CARDIAC_PLETHYSMO)
                     if args.plethysmo else None)

            result = process_subject(series, roi, params, static=static, belt=belt,
                                     plethysmo=pleth)
        except BaseException:
            stop.set()
            raise

    inputs = {"series": {"path": str(args.series), "sha256": series_sha256.result()},
              "roi": _hash_entry(args.roi)}
    for name in ("static", "belt", "plethysmo", "config"):
        value = getattr(args, name)
        if value:
            inputs[name] = _hash_entry(value)

    outdir = make_dir(args.out)
    report = result_to_report(result, __version__, inputs)
    write_json(outdir / "report.json", report)
    write_curves_csv(outdir / "curves.csv", result.curves)
    write_curves_svg(outdir / "curves.svg", result.curves,
                     f"CSF flow by cardiac phase ({result.roi_label.value})")
    for name in ("report.json", "curves.csv", "curves.svg"):
        print(f"wrote {outdir / name}")
    return 0


def _load_subject_report(path: str, subject_id: str) -> tuple[dict, str]:
    """The subject report at path, checked, and the SHA-256 of the bytes
    it was parsed from, so the digest recorded is of the report used."""
    if not Path(path).is_file():
        raise UnpairedSubject(f"subject {subject_id}: missing report {path}")
    try:
        rep, data = _read_json_bytes(path)
    except InputError as exc:
        raise UnpairedSubject(f"subject {subject_id}: {exc}") from exc
    if not isinstance(rep, dict) or rep.get("kind") != "subject" or "sv" not in rep:
        raise UnpairedSubject(f"subject {subject_id}: {path} is not a subject report")
    sv = rep["sv"].get("global") if isinstance(rep["sv"], dict) else None
    if not (isinstance(sv, dict) and "sv" in sv):
        raise UnpairedSubject(f"subject {subject_id}: {path} has no sv.global.sv")

    def checked(key, tp, value):
        try:
            return coerce(tp, value)
        except ValueError as exc:
            raise UnpairedSubject(f"subject {subject_id}: {path}: {key} {exc}") from None

    sv["sv"] = checked("sv.global.sv", float, sv["sv"])
    rep["sv_modulation"] = checked("sv_modulation", float | None, rep.get("sv_modulation"))
    # kept as plain strings; the ROI label names an output file
    for key, tp in (("roi_label", RoiLabel), ("unit", VolumeUnit)):
        rep[key] = checked(key, tp, rep.get(key)).value
    # reporting.sha256_of, like cmd_process's series hash: bench/spans.py
    # sizes what cli.sha256_of digests as a path
    return rep, reporting.sha256_of(data)


def cmd_cohort(args: argparse.Namespace) -> int:
    manifest = _read_json(args.pairs)
    subjects = manifest.get("subjects") if isinstance(manifest, dict) else None
    if not isinstance(subjects, list) or not subjects:
        raise InvalidSpec(f"{args.pairs}: expected a non-empty 'subjects' list")

    rows = []
    for entry in subjects:
        if not isinstance(entry, dict):
            raise UnpairedSubject(f"manifest entry {entry!r} must be an object")
        sid = entry.get("id")
        if not sid or "conv" not in entry or "epi" not in entry:
            raise UnpairedSubject(f"manifest entry {entry!r} needs id, conv, epi")
        for key in ("conv", "epi"):
            if not isinstance(entry[key], str):
                raise UnpairedSubject(
                    f"subject {sid}: {key} must be a report path, got {entry[key]!r}")
        conv, conv_sha256 = _load_subject_report(entry["conv"], sid)
        epi, epi_sha256 = _load_subject_report(entry["epi"], sid)
        if conv["roi_label"] != epi["roi_label"]:
            raise UnpairedSubject(
                f"subject {sid}: conv ROI {conv['roi_label']} != epi ROI {epi['roi_label']}"
            )
        if conv["unit"] != epi["unit"]:
            raise UnpairedSubject(
                f"subject {sid}: conv unit {conv['unit']} != epi unit {epi['unit']}"
            )
        rows.append({
            "id": sid,
            "roi": conv["roi_label"],
            "unit": conv["unit"],
            "conv_sv": conv["sv"]["global"]["sv"],
            "epi_sv": epi["sv"]["global"]["sv"],
            "modulation": epi["sv_modulation"],
            "conv": {"path": entry["conv"], "sha256": conv_sha256},
            "epi": {"path": entry["epi"], "sha256": epi_sha256},
        })
    if len(rows) < 5:
        raise TooFewPairs(f"cohort comparison needs >= 5 paired subjects, got {len(rows)}")

    by_roi: dict[str, list[dict]] = {}
    for row in rows:
        by_roi.setdefault(row["roi"], []).append(row)
    for roi, group in by_roi.items():
        by_unit: dict[str, list[str]] = {}
        for r in group:
            by_unit.setdefault(r["unit"], []).append(r["id"])
        if len(by_unit) > 1:
            raise UnpairedSubject(f"ROI {roi} mixes units: " + "; ".join(
                f"{', '.join(ids)} in {unit}" for unit, ids in by_unit.items()))

    # every ROI's statistics run before anything is written, so a refusal
    # leaves no partial output behind
    roi_reports = {}
    for roi, group in sorted(by_roi.items()):
        pairs = [PairedSample(r["id"], r["conv_sv"], r["epi_sv"]) for r in group]
        block = {
            "n": len(group),
            "unit": group[0]["unit"],
            "subjects": [r["id"] for r in group],
            "conv_sv": [r["conv_sv"] for r in group],
            "epi_sv": [r["epi_sv"] for r in group],
        }
        try:
            block["spearman"] = asdict(spearman(pairs, exact=args.spearman_exact))
            block["wilcoxon"] = asdict(wilcoxon_paired(pairs))
            if args.paired_t:
                block["paired_t"] = asdict(paired_t(pairs))
        except CsfdynError as exc:
            raise type(exc)(f"ROI {roi}: {exc}") from exc
        mods = [r["modulation"] for r in group if r["modulation"] is not None]
        block["modulation_mean"] = (sum(mods) / len(mods)) if mods else None
        block["modulation_n"] = len(mods)
        roi_reports[roi] = block

    outdir = make_dir(args.out)
    for roi, block in roi_reports.items():
        write_scatter_svg(
            outdir / f"scatter_{roi.lower()}.svg",
            block["conv_sv"],
            block["epi_sv"],
            f"Stroke volume by both routes ({roi})",
            f"gated-route SV ({block['unit']})",
            f"continuous-route SV ({block['unit']})",
        )

    inputs = [{"id": r["id"], "conv": r["conv"], "epi": r["epi"]} for r in rows]
    write_json(outdir / "cohort.json", {
        "kind": "cohort",
        "version": __version__,
        "inputs": inputs,
        "config": {"spearman_exact": args.spearman_exact, "paired_t": args.paired_t},
        "per_roi": roi_reports,
    })
    print(f"wrote {outdir / 'cohort.json'}")
    return 0


def _spec_from_args(args: argparse.Namespace) -> PhantomSpec:
    if args.spec:
        spec = PhantomSpec.from_json_dict(_read_json(args.spec))
    elif args.preset == "spinal":
        spec = default_spinal_spec()
    else:
        spec = default_aqueduct_spec()
    # passed unconverted: the spec's own field check refuses bad values
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.modulation is not None:
        spec = replace(spec, resp=replace(spec.resp, modulation_insp=args.modulation))
    return spec


def _write_phantom_subject(spec: PhantomSpec, outdir: Path, gated: bool) -> None:
    make_dir(outdir)  # an unwritable outdir fails before the phantom is built
    ds = generate(spec)
    save_dataset(ds, outdir)
    write_json(outdir / "spec.json", asdict(spec))
    if gated:
        gated_spec = replace(
            spec, acquisition=replace(spec.acquisition, series_kind=SeriesKind.GATED_CONV)
        )
        write_series(generate_gated(gated_spec), outdir / "gated.csfd")


def cmd_phantom(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    # refused before any directory is made; --gated adds the GATED_CONV series
    if spec.acquisition.series_kind is not SeriesKind.CONTINUOUS_EPI:
        raise InvalidSpec("csfdyn phantom writes a CONTINUOUS_EPI series (and its "
                          "GATED_CONV reconstruction with --gated); "
                          f"series_kind {spec.acquisition.series_kind.value} is refused")
    outdir = Path(args.out)
    if args.cohort is not None:
        subjects = phantom_cohort(args.cohort, base=spec, seed=spec.seed)
        listing = []
        for subj in subjects:
            subdir = outdir / subj.subject_id
            _write_phantom_subject(subj.spec, subdir, args.gated)
            listing.append({"id": subj.subject_id, "dir": subj.subject_id,
                            "spec": asdict(subj.spec)})
        make_dir(outdir)
        write_json(outdir / "cohort_specs.json",
                   {"kind": "phantom_cohort", "version": __version__,
                    "seed": spec.seed, "subjects": listing})
        print(f"wrote {outdir / 'cohort_specs.json'} and {len(subjects)} subject dirs")
    else:
        _write_phantom_subject(spec, outdir, args.gated)
        print(f"wrote phantom dataset under {outdir}")
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"process": cmd_process, "cohort": cmd_cohort, "phantom": cmd_phantom}
    try:
        _apply_config(args, commands[args.command])
        return handlers[args.command](args)
    except InputError as exc:
        stage = f" [{exc.stage}]" if exc.stage else ""
        print(f"csfdyn: input error{stage}: {exc}", file=sys.stderr)
        return 2
    except ProcessingRefusal as exc:
        stage = f" [{exc.stage}]" if exc.stage else ""
        print(f"csfdyn: refusing{stage}: {exc}", file=sys.stderr)
        return 3
    except CsfdynError as exc:
        print(f"csfdyn: internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001
        print(f"csfdyn: internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
