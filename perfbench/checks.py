"""Output checks for one benchmark op.

Every op's run directory is checked three ways:

* integrity: the manifest lists exactly the files written, with their
  sha256 and byte count; JSON parses and SVG is well-formed XML;
* reference: each CSV has the header and row count stored in
  ``reference.json`` and its sampled rows agree with the stored values
  within the tolerances below;
* physics that holds for any correct integrator or eigensolver: E <-> -conj(E)
  pairing of the ladder modes, the stable pair near +-(2J - omega), P = norm2^2, fidelities in
  [0, 1], normalized initial states, fig3's gaussian purifying to F_g > 0.99
  and the switch ending at F_e > 0.99.

The tolerances sit far above RK4's own error (below 2e-6 relative on norm2
and 5e-8 on fidelities against scipy's expm_multiply on these runs) and
above the ~2.5e-5 error level a replacement integrator may have, and below
what a 1% change of V does (2e-4 to 5e-3 on the same columns).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ElementTree
from pathlib import Path

FIDELITY_ATOL = 1e-4
NORM_RTOL = 1e-4
ENERGY_RTOL = 1e-6
# The deep modes of the full spectrum (branch 'u') are ill-conditioned: their
# computed energies break the exact E <-> -conj(E) pairing by up to 4e-3.
UNLABELED_ENERGY_RTOL = 1e-2
AMPLITUDE_ATOL = 1e-6
TIME_RTOL = 1e-12
RESIDUAL_MAX = 1e-6
SAMPLE_ROWS = 25
STABLE_PAIR_ATOL = 1e-3
FINAL_FIDELITY_MIN = 0.99


def read_outputs(outdir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir()) if path.is_file()}


def digest(files: dict[str, bytes]) -> str:
    """One hash over every file name and its bytes."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def file_key(op, filename: str) -> str:
    """Reference key: the op's inputs that this file depends on, plus its name.

    The drawn convergence inputs reach only the initial state they shape, so
    files of the other states share one reference across seeds.
    """
    used = {"seed", "initial_center", "initial_width"}
    if filename.endswith("_random.csv"):
        used = {"seed"}
    elif filename.endswith("_point.csv"):
        used = {"initial_center"}
    elif filename.endswith(("_gaussian.csv", "_tophat.csv")):
        used = {"initial_center", "initial_width"}
    elif filename.endswith(".csv"):
        used = set()
    drop = {"seed", "initial_center", "initial_width"} - used
    inputs = {k: v for k, v in op.spec.items() if k not in drop}
    return json.dumps(inputs, sort_keys=True) + " " + filename


def _rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], rows[1:]


def sample_indices(count: int) -> list[int]:
    if count <= SAMPLE_ROWS:
        return list(range(count))
    step = (count - 1) / (SAMPLE_ROWS - 1)
    return sorted({round(i * step) for i in range(SAMPLE_ROWS)})


def extract(op, files: dict[str, bytes]) -> dict[str, dict]:
    """Reference entries for every CSV of one op's outputs."""
    entries = {}
    for name, data in files.items():
        if not name.endswith(".csv"):
            continue
        header, rows = _rows(data)
        entries[file_key(op, name)] = {
            "header": ",".join(header),
            "rows": len(rows),
            "sample": {str(i): ",".join(rows[i]) for i in sample_indices(len(rows))},
        }
    return entries


def _close(value: float, ref: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def _compare_row(header, row, ref_row, where) -> list[str]:
    problems = []
    cells = dict(zip(header, row))
    refs = dict(zip(header, ref_row))
    for column in header:
        got, want = cells[column], refs[column]
        if column in ("l", "m", "branch"):
            ok = got == want
        elif column in ("re_energy", "im_energy", "residual"):
            continue
        elif column == "time":
            ok = _close(float(got), float(want), TIME_RTOL, TIME_RTOL)
        elif column in ("norm2", "P"):
            ok = _close(float(got), float(want), rtol=NORM_RTOL)
        elif column.startswith("F_"):
            ok = _close(float(got), float(want), atol=FIDELITY_ATOL)
        elif column in ("re_amp", "im_amp", "abs2"):
            ok = _close(float(got), float(want), atol=AMPLITUDE_ATOL)
        else:
            ok = False
            problems.append(f"{where}: no tolerance rule for column {column!r}")
            continue
        if not ok:
            problems.append(f"{where}: {column} = {got}, reference {want}")
    if "re_energy" in header:
        energy = complex(float(cells["re_energy"]), float(cells["im_energy"]))
        ref_energy = complex(float(refs["re_energy"]), float(refs["im_energy"]))
        rtol = ENERGY_RTOL if refs["branch"] != "u" else UNLABELED_ENERGY_RTOL
        if abs(energy - ref_energy) > rtol * abs(ref_energy):
            problems.append(f"{where}: energy {energy}, reference {ref_energy}")
    return problems


def _check_reference(op, name, header, rows, reference) -> list[str]:
    key = file_key(op, name)
    entry = reference.get(key)
    if entry is None:
        return [f"{name}: no reference stored for {key}"]
    if ",".join(header) != entry["header"]:
        return [f"{name}: header {header}, reference {entry['header']}"]
    if len(rows) != entry["rows"]:
        return [f"{name}: {len(rows)} rows, reference {entry['rows']}"]
    problems = []
    for index, ref_line in entry["sample"].items():
        problems += _compare_row(header, rows[int(index)], ref_line.split(","),
                                 f"{name} row {index}")
    return problems


def _check_series(op, name, header, rows) -> list[str]:
    cols = {column: [float(row[i]) for row in rows] for i, column in enumerate(header)}
    problems = []
    times = cols["time"]
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append(f"{name}: times not strictly increasing")
    if not _close(cols["norm2"][0], 1.0, atol=1e-9):
        problems.append(f"{name}: initial norm2 {cols['norm2'][0]} is not 1")
    if any(not _close(p, n2 * n2, rtol=1e-12) for p, n2 in zip(cols["P"], cols["norm2"])):
        problems.append(f"{name}: P differs from norm2^2")
    for column in header:
        if column.startswith("F_") and any(not 0.0 <= f <= 1.0 for f in cols[column]):
            problems.append(f"{name}: {column} outside [0, 1]")
    # Purification and the pi-pulse switch, whatever the integrator.
    final = {
        ("fig3", "fidelity_gaussian.csv"): "F_g",
        ("fig5", "switch.csv"): "F_e",
        ("switch-M100", "switch.csv"): "F_e",
    }.get((op.name, name))
    if final and cols[final][-1] <= FINAL_FIDELITY_MIN:
        problems.append(f"{name}: final {final} = {cols[final][-1]} <= {FINAL_FIDELITY_MIN}")
    return problems


def _check_spectrum(name, header, rows, chain) -> list[str]:
    col = {column: i for i, column in enumerate(header)}
    energies = [complex(float(r[col["re_energy"]]), float(r[col["im_energy"]])) for r in rows]
    labeled = [e for e, r in zip(energies, rows) if r[col["branch"]] != "u"]
    problems = []
    if any(float(r[col["residual"]]) > RESIDUAL_MAX for r in rows):
        problems.append(f"{name}: eigenpair residual above {RESIDUAL_MAX}")
    # Anti-PT symmetry pairs every mode E with -conj(E); checked on the ladder
    # modes, since the unlabeled deep modes are too ill-conditioned for it.
    for energy in labeled:
        if abs(energy.real) > 1e-8 and min(abs(e + energy.conjugate()) for e in energies) > 1e-8:
            problems.append(f"{name}: no partner -conj(E) for E = {energy}")
            break
    omega = math.sqrt(chain["J"] * chain["V"] / 2.0)
    edge = 2.0 * chain["J"] - omega
    pair = sorted(energies[:2], key=lambda e: e.real)
    if len(pair) < 2 or not (_close(pair[0].real, -edge, atol=STABLE_PAIR_ATOL)
                             and _close(pair[1].real, edge, atol=STABLE_PAIR_ATOL)
                             and all(abs(e.imag) <= chain["V"] for e in pair)):
        problems.append(f"{name}: leading pair {pair} is not near +-{edge:.6g}")
    return problems


def _check_integrity(files: dict[str, bytes]) -> list[str]:
    if "manifest.json" not in files:
        return ["manifest.json missing"]
    listed = json.loads(files["manifest.json"])["outputs"]
    problems = []
    names = {item["name"] for item in listed}
    if names != set(files) - {"manifest.json"}:
        problems.append(f"manifest lists {sorted(names)}, directory holds {sorted(files)}")
    for item in listed:
        data = files.get(item["name"])
        if data is None:
            continue
        if hashlib.sha256(data).hexdigest() != item["sha256"] or len(data) != item["bytes"]:
            problems.append(f"{item['name']}: sha256 or byte count differs from manifest")
    for name, data in files.items():
        try:
            if name.endswith(".json"):
                json.loads(data)
            elif name.endswith(".svg"):
                ElementTree.fromstring(data)
        except (ValueError, ElementTree.ParseError) as exc:
            problems.append(f"{name}: does not parse ({exc})")
    return problems


def check(op, files: dict[str, bytes], reference: dict) -> list[str]:
    """Every problem found in one op's outputs; empty when they are correct."""
    problems = _check_integrity(files)
    chain = {"J": op.spec.get("J", 1.0), "V": op.spec.get("V", 2e-4)}
    for name, data in sorted(files.items()):
        if not name.endswith(".csv"):
            continue
        header, rows = _rows(data)
        problems += _check_reference(op, name, header, rows, reference)
        if header[:3] == ["time", "norm2", "P"]:
            problems += _check_series(op, name, header, rows)
        elif "re_energy" in header:
            problems += _check_spectrum(name, header, rows, chain)
        elif header[-1] == "abs2":
            total = sum(float(row[-1]) for row in rows)
            if not _close(total, 1.0, atol=1e-9):
                problems.append(f"{name}: sum |psi|^2 = {total}, not 1")
    if not any(name.endswith(".csv") for name in files):
        problems.append("no CSV written")
    return problems
