"""Standard scenario protocols tying the simulator, schedule, and controller.

A standard run is reproducible from ``(config, seed, steps, control mode,
legitimacy mode)``.  The run seed splits into two child streams, one for the
world and one for the legitimacy schedule, so changing the schedule mode
never perturbs the world's own randomness.

Under the ``random`` legitimacy mode, legitimacy holds at its nominal value
through the controller warmup window and the random schedule starts when the
warmup ends.  Uncontrolled runs use the identical timing so that controlled
and uncontrolled suites face the same disturbance protocol.
"""

from __future__ import annotations

import numpy as np

from .abm import run_scenario, WorldParams
from .config import controller_params, loop_config, world_params
from .control import EdmController, make_legitimacy_schedule
from .timeseries import Frame

__all__ = ["legitimacy_profile", "standard_run"]


def legitimacy_profile(
    cfg: dict,
    seed_sequence: np.random.SeedSequence,
    steps: int,
    mode: str,
) -> np.ndarray | None:
    """Per-tick legitimacy values for a standard scenario.

    ``constant`` returns None (the world keeps its nominal value).
    ``random`` holds nominal legitimacy through the warmup window and then
    follows a random piecewise-constant schedule over the remaining ticks,
    so controlled and uncontrolled runs face the disturbance on the same
    footing.  ``random-full`` applies the schedule from tick 1, for runs with
    no controller in the loop (e.g. the model-comparison dataset).
    """
    if mode == "constant":
        return None
    if mode not in ("random", "random-full"):
        raise ValueError(
            f"legitimacy mode must be 'constant', 'random' or 'random-full', got {mode!r}"
        )
    warmup = 0 if mode == "random-full" else int(cfg["warmup_ticks"])
    span = steps - warmup
    if span <= int(cfg["schedule_changes"]):
        raise ValueError(
            f"random legitimacy needs steps > warmup + {cfg['schedule_changes']};"
            f" got steps={steps}, warmup={warmup}"
        )
    leg = np.full(steps, float(cfg["legitimacy"]))
    leg[warmup:] = make_legitimacy_schedule(
        seed_sequence,
        span,
        n_changes=int(cfg["schedule_changes"]),
        low=float(cfg["legitimacy_low"]),
        high=float(cfg["legitimacy_high"]),
    )
    return leg


def standard_run(
    cfg: dict,
    seed: int,
    steps: int,
    control: bool,
    legitimacy_mode: str = "constant",
) -> Frame:
    """Run one standard scenario and return its observation frame."""
    params: WorldParams = world_params(cfg)
    world_ss, schedule_ss = np.random.SeedSequence(int(seed)).spawn(2)
    leg = legitimacy_profile(cfg, schedule_ss, steps, legitimacy_mode)
    controller = None
    if control:
        controller = EdmController(loop_config(cfg), controller_params(cfg))
    return run_scenario(params, steps, world_ss, legitimacy=leg, controller=controller)
