import hashlib

import numpy as np
import pytest

from edmcontrol.config import resolve
from edmcontrol.scenarios import legitimacy_profile, standard_run
from edmcontrol.timeseries import write_frame_csv

SMALL = {
    "grid_width": 20,
    "grid_height": 20,
    "n_citizens": 120,
    "n_cops": 12,
    "vision": 3.0,
    "jail_capacity": 60,
    "legitimacy": 0.7,
    "warmup_ticks": 50,
    "schedule_changes": 5,
}


def small_cfg():
    cfg = dict(resolve())
    cfg.update(SMALL)
    return cfg


class TestLegitimacyProfile:
    def test_constant_mode_returns_none(self):
        cfg = small_cfg()
        ss = np.random.SeedSequence(0)
        assert legitimacy_profile(cfg, ss, 200, "constant") is None

    def test_random_mode_nominal_through_warmup(self):
        cfg = small_cfg()
        ss = np.random.SeedSequence(1)
        leg = legitimacy_profile(cfg, ss, 300, "random")
        assert np.all(leg[:50] == cfg["legitimacy"])
        post = leg[50:]
        assert np.all((post > cfg["legitimacy_low"]) & (post <= cfg["legitimacy_high"]))
        assert len(np.unique(post)) > 1

    def test_needs_room_for_schedule(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="steps"):
            legitimacy_profile(cfg, np.random.SeedSequence(2), 54, "random")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            legitimacy_profile(small_cfg(), np.random.SeedSequence(3), 200, "sometimes")


class TestStandardRun:
    def test_deterministic(self):
        cfg = small_cfg()
        a = standard_run(cfg, seed=5, steps=120, control=False, legitimacy_mode="random")
        b = standard_run(cfg, seed=5, steps=120, control=False, legitimacy_mode="random")
        for col in a.columns:
            assert np.array_equal(a.columns[col], b.columns[col])

    def test_control_and_schedule_seeds_independent(self):
        # the world trajectory through the warmup window is identical whether
        # or not the schedule mode is random, because seeds are split
        cfg = small_cfg()
        const = standard_run(cfg, seed=7, steps=60, control=False, legitimacy_mode="constant")
        rand = standard_run(cfg, seed=7, steps=60, control=False, legitimacy_mode="random")
        warm = slice(0, cfg["warmup_ticks"])
        assert np.array_equal(const.column("active")[warm], rand.column("active")[warm])

    def test_controlled_run_has_forecast_column(self):
        cfg = small_cfg()
        f = standard_run(cfg, seed=9, steps=80, control=True, legitimacy_mode="random")
        assert "forecast_active" in f.columns
        fc = f.column("forecast_active")
        assert np.all(np.isnan(fc[: cfg["warmup_ticks"] - 1]))
        assert np.isfinite(fc[cfg["warmup_ticks"] :]).all()


# SHA-256 of frame.csv from paper-scale uncontrolled runs: the default config
# with warmup_ticks = 1500, 3000 ticks, random legitimacy.  They pin the
# simulator at full scale byte for byte, where the small golden frames
# cannot reach (vision 7, 80 cops, a jail that fills).
PAPER_SCALE_FRAMES = {
    0: "a57edf9d82c1d090530df04155df687b6a5090d8c83070679a56957bb520c179",
    1: "458b8767c26d9d7bb10c7c9bb7f3400c5fcff7b68ae4d9ee59039cab182acaf6",
    2: "2e0dc93e2c330624bdd51a110f61af027814ea9933a5f0ed7cf2277509bc513f",
}


@pytest.mark.parametrize("seed", sorted(PAPER_SCALE_FRAMES))
def test_paper_scale_uncontrolled_frame_digest(tmp_path, seed):
    cfg = resolve(overrides={"warmup_ticks": 1500})
    frame = standard_run(cfg, seed, 3000, control=False, legitimacy_mode="random")
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PAPER_SCALE_FRAMES[seed]


# The same runs with the controller on: the closed loop at paper scale, 1501
# engaged decisions per run against a library that grows to 2991 rows.
PAPER_SCALE_CONTROLLED_FRAMES = {
    0: "394e5f40548cdf8b6c70a3dddfa13527956764ec22abc389e1b55009f89fd3a0",
    1: "39a1b8e6342a19283c6002d1bdb51c556ce2ba597efff018e4a7d80b6c73df91",
    2: "a11b6e7b22988dfe5ba6397503ec8cd0ad69229be73c90e42f2fc6db16728ca7",
}


@pytest.mark.parametrize("seed", sorted(PAPER_SCALE_CONTROLLED_FRAMES))
def test_paper_scale_controlled_frame_digest(tmp_path, seed):
    cfg = resolve(overrides={"warmup_ticks": 1500})
    frame = standard_run(cfg, seed, 3000, control=True, legitimacy_mode="random")
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PAPER_SCALE_CONTROLLED_FRAMES[seed]
