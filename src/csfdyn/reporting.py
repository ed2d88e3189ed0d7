"""Deterministic report writers: JSON, CSV, and hand-rolled SVG.

Byte reproducibility rules: keys sorted, floats serialized by repr
(shortest round-trip) in JSON and by fixed-precision formatting in SVG
coordinates, no timestamps, no environment lookups. A file or directory
that cannot be written raises IoFailure.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .ensemble import PHASE_GRID
from .errors import IoFailure


def sha256_of(source) -> str:
    """Hex SHA-256 of a file, named by its path (a str or os.PathLike), or
    of a buffer, such as the map of a series file (ingest.map_series). A
    file is read 64 KiB at a time into one buffer, so what the call holds
    stays small whatever the file's size; a file that another program
    truncates meanwhile gives the digest of what is left. A buffer is
    hashed where it lies, with no copy made."""
    if not isinstance(source, (str, os.PathLike)):
        return hashlib.sha256(source).hexdigest()
    digest, buf = hashlib.sha256(), memoryview(bytearray(1 << 16))
    try:
        with open(source, "rb", buffering=0) as fh:
            while n := fh.readinto(buf):
                digest.update(buf[:n])
    except OSError as exc:
        raise IoFailure(f"cannot hash {source}: {exc}") from exc
    return digest.hexdigest()


def make_dir(path) -> Path:
    """path as a Path, made with its parents if missing. IoFailure if it
    cannot be made (a file in its place, say)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


def _write_text(path, text: str, encoding: str) -> None:
    try:
        Path(path).write_text(text, encoding=encoding)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(path, payload: dict) -> None:
    """Write payload as sorted, indented JSON.

    The payload holds JSON types only: dict, list, tuple, str, int,
    float, bool and None. A str-valued enum is a str, so it is written as
    its value. Anything else (a numpy array or integer, say) raises
    TypeError; nothing is converted.
    """
    _write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n", "utf-8")


def write_curves_csv(path, curves) -> None:
    """phase_index plus mean/sd columns per ensemble; absent ensembles
    leave empty cells."""
    lines = ["phase_index,global_mean,global_sd,insp_mean,insp_sd,exp_mean,exp_sd"]
    for k in range(curves.global_mean.size):
        cells = [str(k), repr(float(curves.global_mean[k])), repr(float(curves.global_sd[k]))]
        for mean, sd in ((curves.insp_mean, curves.insp_sd), (curves.exp_mean, curves.exp_sd)):
            if mean is None:
                cells += ["", ""]
            else:
                cells += [repr(float(mean[k])), repr(float(sd[k]))]
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n", "ascii")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class SvgCanvas:
    """Tiny fixed-size SVG builder: enough for line plots and scatters."""

    W = 800
    H = 500
    MARGIN_L = 70
    MARGIN_R = 25
    MARGIN_T = 40
    MARGIN_B = 55

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim: tuple, ylim: tuple):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.x0, self.x1 = float(xlim[0]), float(xlim[1])
        self.y0, self.y1 = float(ylim[0]), float(ylim[1])
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.body: list[str] = []

    def _sx(self, x: float) -> float:
        span = self.W - self.MARGIN_L - self.MARGIN_R
        return self.MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * span

    def _sy(self, y: float) -> float:
        span = self.H - self.MARGIN_T - self.MARGIN_B
        return self.H - self.MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * span

    def line(self, p0: tuple, p1: tuple, color: str = "#888888", dash: bool = False) -> None:
        dash_attr = ' stroke-dasharray="6,4"' if dash else ""
        self.body.append(
            f'<line x1="{_fmt(self._sx(p0[0]))}" y1="{_fmt(self._sy(p0[1]))}" '
            f'x2="{_fmt(self._sx(p1[0]))}" y2="{_fmt(self._sy(p1[1]))}" '
            f'stroke="{color}" stroke-width="1"{dash_attr}/>'
        )

    def polyline(self, xs, ys, color: str, width: float = 2.0) -> None:
        pts = " ".join(
            f"{_fmt(self._sx(float(x)))},{_fmt(self._sy(float(y)))}"
            for x, y in zip(xs, ys)
        )
        self.body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def scatter(self, xs, ys, color: str, r: float = 4.0) -> None:
        for x, y in zip(xs, ys):
            self.body.append(
                f'<circle cx="{_fmt(self._sx(float(x)))}" cy="{_fmt(self._sy(float(y)))}" '
                f'r="{_fmt(r)}" fill="{color}"/>'
            )

    def legend(self, entries: list[tuple]) -> None:
        x = self.W - self.MARGIN_R - 150
        y = self.MARGIN_T + 10
        for label, color in entries:
            self.body.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(x + 24)}" '
                f'y2="{_fmt(y)}" stroke="{color}" stroke-width="3"/>'
            )
            self.body.append(
                f'<text x="{_fmt(x + 30)}" y="{_fmt(y + 4)}" '
                f'font-family="sans-serif" font-size="13">{_esc(label)}</text>'
            )
            y += 20

    def render(self) -> str:
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.W}" '
            f'height="{self.H}" viewBox="0 0 {self.W} {self.H}">',
            f'<rect x="0" y="0" width="{self.W}" height="{self.H}" fill="#ffffff"/>',
            f'<rect x="{self.MARGIN_L}" y="{self.MARGIN_T}" '
            f'width="{self.W - self.MARGIN_L - self.MARGIN_R}" '
            f'height="{self.H - self.MARGIN_T - self.MARGIN_B}" '
            f'fill="none" stroke="#444444" stroke-width="1"/>',
            f'<text x="{self.W // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(self.title)}</text>',
            f'<text x="{self.W // 2}" y="{self.H - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_esc(self.xlabel)}</text>',
            f'<text x="18" y="{self.H // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {self.H // 2})">{_esc(self.ylabel)}</text>',
        ]
        # y tick labels at the plot corners keep the scale readable
        for yv in (self.y0, self.y1):
            parts.append(
                f'<text x="{self.MARGIN_L - 6}" y="{_fmt(self._sy(yv) + 4)}" '
                f'text-anchor="end" font-family="sans-serif" font-size="11">'
                f"{yv:.4g}</text>"
            )
        for xv in (self.x0, self.x1):
            parts.append(
                f'<text x="{_fmt(self._sx(xv))}" y="{self.H - self.MARGIN_B + 16}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                f"{xv:.4g}</text>"
            )
        parts.extend(self.body)
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path) -> None:
        _write_text(path, self.render() + "\n", "utf-8")


def _esc(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_curves_svg(path, curves, title: str, unit_label: str = "mL/s") -> None:
    """Overlay plot of the ensemble curves with a dashed zero line:
    inspiration red, expiration blue, global mean gray."""
    stacked = [curves.global_mean]
    if curves.insp_mean is not None:
        stacked.append(curves.insp_mean)
    if curves.exp_mean is not None:
        stacked.append(curves.exp_mean)
    lo = min(0.0, min(float(c.min()) for c in stacked))
    hi = max(0.0, max(float(c.max()) for c in stacked))
    pad = 0.08 * (hi - lo) if hi > lo else 1.0
    canvas = SvgCanvas(title, "cardiac phase", f"flow ({unit_label})",
                       (0.0, 1.0), (lo - pad, hi + pad))
    canvas.line((canvas.x0, 0.0), (canvas.x1, 0.0), "#888888", dash=True)
    entries = [("global", "#555555")]
    canvas.polyline(PHASE_GRID, curves.global_mean, "#555555", 1.5)
    if curves.insp_mean is not None:
        canvas.polyline(PHASE_GRID, curves.insp_mean, "#c62828", 2.0)
        entries.append(("inspiration", "#c62828"))
    if curves.exp_mean is not None:
        canvas.polyline(PHASE_GRID, curves.exp_mean, "#1565c0", 2.0)
        entries.append(("expiration", "#1565c0"))
    canvas.legend(entries)
    canvas.write(path)


def write_scatter_svg(path, a, b, title: str, xlabel: str, ylabel: str) -> None:
    """Paired-values scatter with the identity line."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = min(0.0, float(min(a.min(), b.min())))
    hi = float(max(a.max(), b.max()))
    pad = 0.08 * (hi - lo) if hi > lo else 1.0
    lim = (lo - pad, hi + pad)
    canvas = SvgCanvas(title, xlabel, ylabel, lim, lim)
    canvas.line((lim[0], lim[0]), (lim[1], lim[1]), "#888888", dash=True)
    canvas.scatter(a, b, "#2e7d32")
    canvas.write(path)
