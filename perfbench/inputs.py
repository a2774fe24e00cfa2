"""Workload inputs and their ground truth, made from the seed alone.

Every input is described by a script (phase kinds and durations) that the
benchmark writes itself. The ground truth below is read off those scripts
and the paper's rule, never off the program's own output:

* a canonical rub whose contact-to-rub-end time lies in [2, 7.5] s is
  Completed; ablations, stage-3 sessions and rubs longer than 7.5 s are
  NotCompleted;
* the verdict settles at the end of a completed rub, at contact +
  stage_max_s + stage_max_slack_s for an over-long rub, and at the end of
  the stream otherwise;
* a window inside a facing hold has orientation code 0, inside stage-3
  stacked oscillation code 1, inside an occluded rub code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hge.config import DEFAULT_CONFIG
from hge.synth import (
    ABLATIONS,
    OCCLUSION_DISTANCE_MM,
    RUB_CONTACT_GAP_MM,
    GestureScript,
    PhaseKind,
    PhaseSpec,
    generate,
    make_ablation_stream,
)

FPS = 100.0
NOISE_SIGMA = 1.0
HOLD_S = 1.0
APPROACH_S = 1.0
START_SEPARATION_MM = 150.0
COMPLETED = "Completed"
NOT_COMPLETED = "NotCompleted"

# feature_export: one recording of at least 120 s, so that slice_ms's
# whole-stream scan per window shows; it holds all three labelled phases
LONG_PHASE_S = 40.0
FEATURE_WINDOW_MS = 1500
MLPREP_WINDOW_MS = 3000
MLPREP_WINDOWS_PER_LABEL = 15
ORIENTATION_CODE = {"facing_hold": 0, "stage3": 1, "rub": 2}
ORIENTATION_NAME = {0: "FacingEachOther", 1: "OnePalmOverOther", 2: "Other"}


@dataclass
class Session:
    """One detector input with the verdict its script implies."""

    name: str
    kind: str
    verdict: str
    settle_ms: int          # stream time at which the ground truth settles the verdict
    stream: object = None   # FrameStream, generated in set-up
    script: object = None   # GestureScript, or (ablation name, rub Hz, seed) for an ablation


def _phase(kind, duration_s, **kw):
    return PhaseSpec(PhaseKind(kind), duration_s, **kw)


def _frame_ms(t_s: float) -> int:
    """Timestamp of the first frame at or after stream time t_s."""
    return int(round(math.ceil(t_s * FPS - 1e-9) * 1000.0 / FPS))


def _contact_s(hold_s: float) -> float:
    # the synthesiser drops one hand once the approaching palms are closer
    # than OCCLUSION_DISTANCE_MM; separation falls linearly to RUB_CONTACT_GAP_MM
    share = (START_SEPARATION_MM - OCCLUSION_DISTANCE_MM) / (START_SEPARATION_MM - RUB_CONTACT_GAP_MM)
    return hold_s + APPROACH_S * share


def _last_frame_ms(total_s: float) -> int:
    return int(round((int(round(total_s * FPS)) - 1) * 1000.0 / FPS))


def rub_script(rub_s: float, freq_hz: float, seed: int, hold_s: float = HOLD_S, tail=()):
    phases = (
        _phase("facing_hold", hold_s, separation_mm=START_SEPARATION_MM),
        _phase("approach", APPROACH_S, start_separation_mm=START_SEPARATION_MM),
        _phase("rub_circular", rub_s, rub_frequency_hz=freq_hz),
    ) + tuple(tail)
    return GestureScript(phases=phases, fps=FPS, noise_sigma=NOISE_SIGMA, seed=seed)


def stage3_script(duration_s: float, freq_hz: float, seed: int):
    return GestureScript(phases=(_phase("stage3_linear", duration_s, oscillation_frequency_hz=freq_hz),),
                         fps=FPS, noise_sigma=NOISE_SIGMA, seed=seed)


def rub_session(name, kind, rub_s, freq_hz, seed, hold_s=HOLD_S, tail=()):
    """Session for a rub script, with the paper's verdict and settle time."""
    script = rub_script(rub_s, freq_hz, seed, hold_s=hold_s, tail=tail)
    total_s = sum(p.duration_s for p in script.phases)
    contact = _contact_s(hold_s)
    rub_end = hold_s + APPROACH_S + rub_s
    cfg = DEFAULT_CONFIG
    limit = cfg.stage_max_s + cfg.stage_max_slack_s
    if cfg.stage_min_s <= rub_end - contact <= limit:
        verdict = COMPLETED
        settle = min(_frame_ms(rub_end), _last_frame_ms(total_s))
    else:
        verdict = NOT_COMPLETED
        settle = _frame_ms(contact + limit) if rub_end - contact > limit else _last_frame_ms(total_s)
    return Session(name, kind, verdict, settle, script=script)


def _freq(rng) -> float:
    return float(rng.uniform(1.0, 3.0))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def live_sessions(seed: int):
    """The live_replay session mix: 13 sessions, one of them a walk-away.

    Rub rates are fixed per session so that every seed gets the same mix of
    detector phases; the seed sets the noise and the order.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for k, (rub_s, freq) in enumerate(((3.0, 1.0), (3.0, 3.0), (6.0, 1.5), (6.0, 2.5))):
        out.append(rub_session(f"rub{rub_s:.0f}s_{k}", "canonical", rub_s, freq, _seed(rng)))
    out.append(rub_session("rub30s", "overlong", 30.0, 2.0, _seed(rng)))
    # a 4 s rub, then the hands leave the sensor for 20 s
    out.append(rub_session("walkaway", "walkaway", 4.0, 2.0, _seed(rng), tail=(_phase("idle", 20.0),)))
    out.append(rub_session("hold20s", "long_hold", 4.5, 2.0, _seed(rng), hold_s=20.0))
    s3 = stage3_script(30.0, 2.0, _seed(rng))
    out.append(Session("stage3_30s", "stage3", NOT_COMPLETED, _last_frame_ms(30.0), script=s3))
    for name in ABLATIONS:
        out.append(Session(f"ablation_{name}", "ablation", NOT_COMPLETED, -1, script=(name, 2.0, _seed(rng))))
    order = rng.permutation(len(out))
    return [out[k] for k in order]


def _grid(rng, lo, hi, n):
    """n values spread evenly over [lo, hi], in seed order: every seed gets the same mix of sizes."""
    return [float(x) for x in rng.permutation(np.linspace(lo, hi, n))]


def batch_sessions(seed: int, count: int = 30):
    """Short recordings for batch_detect: 3-6 s rubs at 1-3 Hz, one ablation in six."""
    rng = np.random.default_rng([seed, 2])
    canonical = count - count // 6
    durations, freqs = _grid(rng, 3.0, 6.0, canonical), _grid(rng, 1.0, 3.0, canonical)
    out = []
    for k in range(count):
        if k % 6 == 5:
            name = ABLATIONS[(k // 6) % len(ABLATIONS)]
            out.append(Session(f"s{k:03d}_ablation_{name}", "ablation", NOT_COMPLETED, -1,
                               script=(name, _freq(rng), _seed(rng))))
        else:
            out.append(rub_session(f"s{k:03d}_rub", "canonical", durations.pop(), freqs.pop(), _seed(rng)))
    return out


def render(session: Session):
    """Generate the session's frames; ablations use the library's recipe."""
    if session.kind == "ablation":
        name, freq, seed = session.script
        session.stream = make_ablation_stream(name, rub_frequency_hz=freq, noise_sigma=NOISE_SIGMA,
                                              seed=seed, fps=FPS)
        session.settle_ms = session.stream.frames[-1].timestamp
    else:
        session.stream, _ = generate(session.script)
    return session


@dataclass
class Recording:
    name: str
    script: object
    regions: dict = field(default_factory=dict)   # label -> (start_ms, end_ms) of the phase


def feature_recording(seed: int) -> Recording:
    """Facing hold, stage-3 stacked oscillation, approach, then an occluded rub: 121 s."""
    rng = np.random.default_rng([seed, 3])
    phases = (
        _phase("facing_hold", LONG_PHASE_S, separation_mm=START_SEPARATION_MM),
        _phase("stage3_linear", LONG_PHASE_S, oscillation_frequency_hz=_freq(rng)),
        _phase("approach", APPROACH_S, start_separation_mm=START_SEPARATION_MM),
        _phase("rub_circular", LONG_PHASE_S, rub_frequency_hz=_freq(rng)),
    )
    script = GestureScript(phases=phases, fps=FPS, noise_sigma=NOISE_SIGMA, seed=_seed(rng))
    ms = LONG_PHASE_S * 1000.0
    rub_start = 2 * ms + APPROACH_S * 1000.0
    return Recording("long", script, {
        "facing_hold": (0.0, ms),
        "stage3": (ms, 2 * ms),
        "rub": (rub_start, rub_start + ms),
    })


def mlprep_manifest(seed: int, rec: Recording):
    """(start_ms, end_ms, label) windows of the recording, shuffled."""
    rng = np.random.default_rng([seed, 4])
    rows = []
    for label, (lo, hi) in rec.regions.items():
        # keep clear of phase edges by half a second
        starts = rng.integers(int(lo) // 10 + 50, int(hi - MLPREP_WINDOW_MS) // 10 - 50,
                              size=MLPREP_WINDOWS_PER_LABEL)
        rows += [(int(s) * 10, int(s) * 10 + MLPREP_WINDOW_MS, label) for s in starts]
    order = rng.permutation(len(rows))
    return [rows[k] for k in order]


def window_truth(rec: Recording, start_ms: int, end_ms: int):
    """Orientation code implied for a window lying wholly inside one phase, else None."""
    for label, (lo, hi) in rec.regions.items():
        if lo <= start_ms and end_ms <= hi:
            return ORIENTATION_CODE[label]
    return None


def synth_scripts(seed: int, count: int = 30):
    """Script texts for synth_write in the `hge synth` format: 3-6 s rubs, one stage-3 session in four."""
    rng = np.random.default_rng([seed, 5])
    stage3 = count // 4
    rubs = list(zip(_grid(rng, 3.0, 6.0, count - stage3), _grid(rng, 1.0, 3.0, count - stage3)))
    stacks = list(zip(_grid(rng, 3.0, 6.0, stage3), _grid(rng, 1.0, 3.0, stage3)))
    texts = []
    for k in range(count):
        head = f"fps {FPS:g}\nseed {_seed(rng)}\nnoise_sigma {NOISE_SIGMA:g}\n"
        if k % 4 == 3:
            duration, freq = stacks.pop()
            body = f"phase stage3_linear duration_s={duration:.3f} oscillation_frequency_hz={freq:.3f}\n"
        else:
            duration, freq = rubs.pop()
            body = (f"phase facing_hold duration_s={HOLD_S:g} separation_mm={START_SEPARATION_MM:g}\n"
                    f"phase approach duration_s={APPROACH_S:g} start_separation_mm={START_SEPARATION_MM:g}\n"
                    f"phase rub_circular duration_s={duration:.3f} rub_frequency_hz={freq:.3f}\n")
        texts.append(head + body)
    return texts
