"""Time-varying interaction strength between propaganda and rebellion.

On a controlled run, the S-map regression coefficient aligned with the
propaganda coordinate estimates d(Active)/d(propaganda) through time.  The
sliding-window variance of that coefficient, split by legitimacy regime,
shows that propaganda's influence is far more erratic when legitimacy is
low.  Uses the full standard scenario, so expect roughly half a minute.

Run:  python demos/05_interaction_analysis.py
"""

import numpy as np
from scipy import stats

from edmcontrol import interaction_coefficients, partition_variance
from edmcontrol.config import resolve
from edmcontrol.scenarios import standard_run


def main():
    cfg = dict(resolve())
    print("running a controlled random-legitimacy scenario (6000 ticks)...")
    frame = standard_run(cfg, seed=0, steps=6000, control=True, legitimacy_mode="random")

    print("fitting leave-one-out S-map coefficients over the whole record...")
    jac = interaction_coefficients(frame, theta=cfg["jacobian_theta"])
    finite = np.isfinite(jac.coef)
    print(f"\ninteraction coefficients: {len(jac.coef)} queries, {jac.n_flagged} flagged")
    print(f"d(active)/d(propaganda): median {np.median(jac.coef[finite]):8.2f}"
          f"   IQR [{np.percentile(jac.coef[finite], 25):.2f},"
          f" {np.percentile(jac.coef[finite], 75):.2f}]")

    part = partition_variance(
        jac,
        frame.column("legitimacy")[jac.times - frame.time[0]],
        threshold=cfg["legitimacy_threshold"],
        window=cfg["jacobian_window"],
        stride=cfg["jacobian_stride"],
    )
    print(f"\nsliding-window variance ({cfg['jacobian_window']}-tick windows,"
          f" stride {cfg['jacobian_stride']}),")
    print(f"split at legitimacy {cfg['legitimacy_threshold']}:")
    print(f"  low  legitimacy: {part.low.size:4d} windows, median variance {np.median(part.low):10.3g}")
    print(f"  high legitimacy: {part.high.size:4d} windows, median variance {np.median(part.high):10.3g}")

    _, p = stats.mannwhitneyu(part.low, part.high, alternative="greater")
    print(f"\none-sided rank test (low > high): p = {p:.2e}")
    print("propaganda's grip on the population is steady while legitimacy is")
    print("high and erratic once grievances grow")


if __name__ == "__main__":
    main()
