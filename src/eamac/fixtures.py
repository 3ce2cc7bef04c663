"""Golden oracle values with provenance.

Every numerically derived reference value in the test suite comes from
this file.  Records are produced once by ``regenerate``, which reruns
the Fock oracle at doubled cutoff and tighter tail budget, and are then
compared against fresh computations at the stated working cutoff.
"""

from dataclasses import asdict
from importlib import resources
from pathlib import Path

from . import region as rg
from . import fock
from .channel import EffectiveChannel, MacParams, ModulationConfig

DATA_FILE = "golden_fixtures.txt"
VERSION = 1


def _data_path() -> Path:
    return Path(resources.files("eamac") / "data" / DATA_FILE)


def load_fixtures(path=None) -> dict:
    """Parse the fixture file into {record_name: {key: value}}."""
    text = Path(path).read_text() if path else _data_path().read_text()
    records = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            records[current] = {}
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            if key == "version" and int(value) != VERSION:
                raise ValueError(f"fixture file version {value} != {VERSION}")
            continue
        try:
            records[current][key] = int(value) if value.isdigit() else float(value)
        except ValueError:
            records[current][key] = value
    return records


def regenerate(path=None) -> dict:
    """Recompute all golden records at doubled cutoff and write the file."""
    eff_unc = EffectiveChannel(0.25, 0.525, 0.1)
    eff_cond = EffectiveChannel(0.25, 0.5, 0.1)
    p = MacParams(tau=0.5, kappa=0.5, n_b=1.0)
    m = ModulationConfig(n_s=0.1)

    produced = 48
    tight = 1e-12
    numerics = rg.RegionNumerics(cutoff=produced, psk_order=produced, tail_tol=tight)
    cutoffs = {"cutoff": 24, "produced_cutoff": produced}
    reg = rg.achievable_region(p, m, numerics)
    records = {
        "psk_mi_unconditioned": {
            **asdict(eff_unc),
            "psk_order": 64,
            **cutoffs,
            "tail": fock.conditional_output_density(eff_unc, produced, tail_tol=tight).tail(),
            "value": fock.psk_ensemble_mi(eff_unc, 64, produced, tail_tol=tight),
        },
        "continuous_mi_conditioned": {**asdict(eff_cond), **cutoffs, "value": rg.continuous_phase_mi(eff_cond, numerics)},
        "region_canonical": {
            **asdict(p),
            **asdict(m),
            **cutoffs,
            **{key: getattr(reg, key) for key in ("x_bound", "y_bound", "sum_bound")},
        },
    }
    for rec in records.values():
        rec["tolerance"] = 5e-7

    lines = [
        "# Golden oracle records: parameters, working cutoff, provenance, value.",
        "# Regenerate with eamac.fixtures.regenerate(); values are computed at",
        "# produced_cutoff (double the working cutoff) with tail budget 1e-12.",
        f"version = {VERSION}",
    ]
    for name, rec in records.items():
        lines.append("")
        lines.append(f"[{name}]")
        for key, value in rec.items():
            lines.append(f"{key} = {value}")
    target = Path(path) if path else _data_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines) + "\n")
    return records
