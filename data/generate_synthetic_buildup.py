"""Regenerate the demo build-up dataset from the package model.

Conditions: 1H-13C pair at 1.09 Angstrom, 5 kHz spinning, matched 80 kHz
locks on resonance, 1/R = 290.8 us, 1/R1 = 137.9 us, T1rho = 1.867 ms,
m0 = 1, default low-discrepancy orientation set.

Run as a script to write ``synthetic_buildup.csv`` beside it; importing it
only builds `data`.
"""

import math
from pathlib import Path

import numpy as np

from cpmas import (BuildUpData, FitSpec, RfScheme, SpinningParams,
                   coupling_from_distance, model_curve, save_buildup,
                   zcw_orientation_set)
from cpmas.powder import DEFAULT_FIT_LEVEL

KHZ = 2.0 * math.pi * 1e3

spec = FitSpec(
    values={"d": coupling_from_distance(1.09, "1H", "13C"),
            "r": 1.0 / 290.8e-6, "r1": 1.0 / 137.9e-6, "t1rho": 1.867e-3,
            "m0": 1.0},
    free=(),
    orientations=zcw_orientation_set(DEFAULT_FIT_LEVEL),
    spin=SpinningParams(omega_r=5.0 * KHZ),
    rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ),
)
times = np.arange(121) * 25e-6
data = BuildUpData(times=times, magnetizations=model_curve(spec, times))

if __name__ == "__main__":
    out = Path(__file__).with_name("synthetic_buildup.csv")
    save_buildup(data, out)
    print(f"wrote {out} ({len(data)} points)")
