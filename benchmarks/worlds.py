"""Seeded synthetic worlds for the gelid benchmark.

A world is what a user hands gelid: a manifest, one SRT file and one
descriptor CSV per video, training probes and a run config. Beside it the
generator writes ``truth.json``, the planted context, label and issue of
every scene, which gelid never reads.

A scene is a run of frames drawn from one context's histogram plus a little
per-frame noise, with its own spoken sentences. Every informative scene
repeats the phrase of its planted issue, so issue clustering has something
to recover; chatter and filler words are shared by every scene. The
structure of a world (how many scenes each context, label and issue gets)
is fixed by the workload; the seed picks the palette, the scene order and
lengths, the words, the noise and the probed scenes.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

LABELS = ("Logic", "Presentation", "Balance", "Performance")
NON_INFORMATIVE = "NonInformative"
BINS = 16

LABEL_WORDS = {
    "Logic": ("crash", "quest", "vanished", "stuck", "softlock", "respawn",
              "npc", "door", "trigger", "clipping"),
    "Presentation": ("texture", "flicker", "hud", "overlaps", "shadow",
                     "font", "blurry", "popin", "subtitle", "sprite"),
    "Balance": ("overpowered", "unfair", "damage", "nerf", "buff", "boss",
                "cooldown", "health", "broken", "cheap"),
    "Performance": ("lag", "framerate", "stutter", "freeze", "fps",
                    "loading", "spike", "drops", "hitch", "slowdown"),
    NON_INFORMATIVE: ("subscribe", "welcome", "chat", "thanks", "follow",
                      "donation", "hello", "stream", "discord", "emote"),
}
FILLER = ("okay", "so", "guys", "right", "let", "me", "just", "see", "we",
          "go", "here", "now", "yeah", "what", "is", "this", "look", "at",
          "that", "alright", "the", "and", "wait", "again")
_SYLLABLES = ("ka", "zor", "vel", "mib", "tor", "qua", "nex", "pli", "dru",
              "fen", "gol", "hax", "jun", "lor", "mur", "oss", "pex", "rin",
              "sul", "tav", "ulm", "vor", "wex", "yar", "zin")


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one workload's world; the seed fills in the details."""

    videos: int
    scenes_per_video: int
    scene_ms: tuple[int, int]          # scene length range, both inclusive
    frame_step_ms: int
    contexts: int                      # palette shared by every video
    informative: float                 # share of scenes with an issue label
    probed: float                      # share of scenes with a training probe
    cue_every_ms: tuple[int, int]      # gap between sentence starts
    issues_per_group: int = 2          # planted issues per context x label
    group_sizes: tuple[int, ...] = ()  # cycled informative group sizes
    early_speech: float = 0.05         # scenes whose speech snaps the cut
    noise: float = 0.01                # per-frame histogram noise
    config: dict = field(default_factory=dict)  # run.conf overrides

    def key(self) -> str:
        """Changes with the spec and with this generator's code."""
        digest = hashlib.sha256(Path(__file__).read_bytes())
        digest.update(json.dumps(asdict(self), sort_keys=True).encode())
        return digest.hexdigest()[:16]


def _palette(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-context base histograms (n, 3, BINS) and mean luminance (n,).

    Each channel puts most of its mass on one bin, and no two contexts share
    that bin in any channel, so context distances sit far above eps.
    """
    if n > BINS:
        raise ValueError(f"at most {BINS} contexts, got {n}")
    hists = np.zeros((n, 3, BINS))
    for channel in range(3):
        dominant = rng.permutation(BINS)[:n]
        spread = rng.random((n, BINS)) * 0.3 / BINS * 2
        hists[:, channel, :] = spread
        hists[np.arange(n), channel, dominant] += 0.7
    hists /= hists.sum(axis=2, keepdims=True)
    luminance = rng.uniform(0.2, 0.9, size=n)
    return hists, luminance


def _issue_nouns(rng: np.random.Generator, n: int) -> list[str]:
    words = [a + b + c for a in _SYLLABLES for b in _SYLLABLES
             for c in ("", "x")]
    picks = rng.choice(len(words), size=n, replace=False)
    return [words[i] for i in picks]


def _plan_scenes(rng: np.random.Generator, spec: WorldSpec) -> list[dict]:
    """The scene multiset: planted context, label and issue of each scene."""
    total = spec.videos * spec.scenes_per_video
    groups = [(c, lbl) for c in range(spec.contexts) for lbl in LABELS]
    if spec.group_sizes:
        sizes = [spec.group_sizes[i % len(spec.group_sizes)]
                 for i in range(len(groups))]
    else:
        n_inf = round(total * spec.informative)
        sizes = [n_inf // len(groups) + (i < n_inf % len(groups))
                 for i in range(len(groups))]
    if sum(sizes) > total:
        raise ValueError("informative groups exceed the scene count")
    scenes = []
    for (context, label), size in zip(groups, sizes):
        # issues split the group as evenly as possible; small groups get one
        n_issues = max(1, min(spec.issues_per_group, size // 2))
        for k in range(size):
            scenes.append({"context": context, "label": label,
                           "issue": f"c{context}/{label}/{k % n_issues}"})
    while len(scenes) < total:
        scenes.append({"context": int(rng.integers(spec.contexts)),
                       "label": NON_INFORMATIVE, "issue": None})
    return scenes


def _order_scenes(rng: np.random.Generator, scenes: list[dict],
                  spec: WorldSpec) -> list[list[dict]]:
    """Shuffle scenes into videos so no two neighbours share a context."""
    for _ in range(100):
        pool = [scenes[i] for i in rng.permutation(len(scenes))]
        videos: list[list[dict]] = []
        ok = True
        for _ in range(spec.videos):
            video: list[dict] = []
            for _ in range(spec.scenes_per_video):
                prev = video[-1]["context"] if video else None
                pick = next((i for i, s in enumerate(pool)
                             if s["context"] != prev), None)
                if pick is None:
                    ok = False
                    break
                video.append(pool.pop(pick))
            if not ok:
                break
            videos.append(video)
        if ok:
            return videos
    raise RuntimeError("could not order scenes without repeated contexts")


def _issue_phrases(rng: np.random.Generator,
                   scenes: list[dict]) -> dict[str, list[str]]:
    issues = sorted({s["issue"] for s in scenes if s["issue"]})
    nouns = _issue_nouns(rng, 2 * len(issues))
    phrases = {}
    for i, issue in enumerate(issues):
        label = issue.split("/")[1]
        words = [LABEL_WORDS[label][j]
                 for j in rng.choice(len(LABEL_WORDS[label]), 3,
                                     replace=False)]
        phrases[issue] = [nouns[2 * i], words[0], words[1], "near",
                          nouns[2 * i + 1], words[2]]
    return phrases


def _sentence(rng: np.random.Generator, core: list[str]) -> str:
    filler = [FILLER[i] for i in rng.choice(len(FILLER), rng.integers(2, 5))]
    return " ".join(filler + core) + "."


def _scene_cues(rng: np.random.Generator, spec: WorldSpec, start: int,
                end: int, scene: dict,
                phrases: dict[str, list[str]]) -> list[tuple[int, int, str]]:
    """Sentences of one scene, each one cue ending in a full stop.

    Speech normally starts 3.5 s in, past the 3 s silence window, so the
    shot cut passes through at the scene boundary; an early-speech scene
    starts talking inside the window and the cut snaps to a sentence end.
    """
    lead = (int(rng.integers(500, 2500)) if rng.random() < spec.early_speech
            else 3500)
    label = scene["label"]
    cues = []
    at = start + lead
    first = True
    while True:
        length = int(rng.integers(1200, 2000))
        if at + length > end - 500:
            break
        if scene["issue"] and (first or rng.random() < 0.5):
            text = _sentence(rng, phrases[scene["issue"]])
        elif label == NON_INFORMATIVE and (first or rng.random() < 0.5):
            words = LABEL_WORDS[NON_INFORMATIVE]
            text = _sentence(rng, [words[i] for i in
                                   rng.choice(len(words), 3, replace=False)])
        else:
            text = _sentence(rng, [])
        cues.append((at, at + length, text))
        first = False
        at += max(length + 300, int(rng.integers(*spec.cue_every_ms)))
    return cues


def _srt_time(ms: int) -> str:
    h, rem = divmod(ms, 3_600_000)
    m, rem = divmod(rem, 60_000)
    s, ms = divmod(rem, 1000)
    return f"{h:02d}:{m:02d}:{s:02d},{ms:03d}"


def _scene_lengths(rng: np.random.Generator, spec: WorldSpec) -> list[int]:
    """Scene lengths in ms, whole frames, spread evenly over the range.

    The seed only shuffles them, so every seed gives the same footage.
    """
    step = spec.frame_step_ms
    units = np.round(np.linspace(spec.scene_ms[0] // step,
                                 spec.scene_ms[1] // step,
                                 spec.videos * spec.scenes_per_video))
    return [int(u) * step for u in rng.permutation(units)]


def _write_video(root: Path, video_id: str, scenes: list[dict],
                 lengths: list[int], spec: WorldSpec,
                 rng: np.random.Generator,
                 palette: tuple[np.ndarray, np.ndarray],
                 phrases: dict[str, list[str]]) -> tuple[dict, list[dict]]:
    hists, lums = palette
    step = spec.frame_step_ms
    rows, cues, truth = [], [], []
    at = 0
    for scene, duration in zip(scenes, lengths):
        n = duration // step
        base = hists[scene["context"]]
        frame_hist = base[None] + rng.random((n, 3, BINS)) * spec.noise
        frame_hist /= frame_hist.sum(axis=2, keepdims=True)
        lum = np.clip(lums[scene["context"]]
                      + rng.normal(0, spec.noise, n), 0.0, 1.0)
        stamps = at + step * np.arange(n)
        rows.append(np.column_stack([stamps, frame_hist.reshape(n, -1), lum]))
        cues += _scene_cues(rng, spec, at, at + duration, scene, phrases)
        truth.append({"start_ms": at, "end_ms": at + duration, **scene})
        at += duration
    table = np.vstack(rows)
    fmt = ",".join(["%d"] + ["%.9f"] * (3 * BINS + 1))
    header = ",".join(["timestamp_ms"] + [f"h{i}" for i in range(3 * BINS)]
                      + ["luminance"])
    csv_lines = [header] + [fmt % tuple(row) for row in table]
    (root / f"{video_id}.descriptors.csv").write_text(
        "\n".join(csv_lines) + "\n", encoding="utf-8")
    srt = [f"{i}\n{_srt_time(s)} --> {_srt_time(e)}\n{text}\n"
           for i, (s, e, text) in enumerate(cues, start=1)]
    (root / f"{video_id}.srt").write_text("\n".join(srt), encoding="utf-8")
    entry = {"video_id": video_id, "subtitles": f"{video_id}.srt",
             "frames": f"{video_id}.descriptors.csv", "duration_ms": at}
    return entry, truth


def _probes(rng: np.random.Generator, truth: dict,
            share: float) -> list[dict]:
    """Probe the middle of ``share`` of the scenes of every label.

    Sampling within each label keeps the class counts, and so the rows
    SMOTE adds, the same for every seed.
    """
    by_label: dict[str, list[tuple[str, dict]]] = {}
    for video_id, scenes in truth.items():
        for scene in scenes:
            by_label.setdefault(scene["label"], []).append((video_id, scene))
    chosen = []
    for label in sorted(by_label):
        members = by_label[label]
        picks = rng.choice(len(members), round(share * len(members)),
                           replace=False)
        chosen += [members[i] for i in picks]
    chosen.sort(key=lambda m: (m[0], m[1]["start_ms"]))
    return [{"video_id": video_id,
             "at_ms": (scene["start_ms"] + scene["end_ms"]) // 2,
             "label": scene["label"]} for video_id, scene in chosen]


def generate(root: Path, spec: WorldSpec, seed: int) -> None:
    """Write one world into ``root`` (replacing what is there)."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    rng = np.random.default_rng([seed, 0x6E11D])
    palette = _palette(rng, spec.contexts)
    planned = _plan_scenes(rng, spec)
    phrases = _issue_phrases(rng, planned)
    videos = _order_scenes(rng, planned, spec)
    lengths = _scene_lengths(rng, spec)
    per_video = spec.scenes_per_video
    entries, truth = [], {}
    for v, scenes in enumerate(videos):
        video_id = f"vid_{v:03d}"
        entry, truth[video_id] = _write_video(
            root, video_id, scenes, lengths[v * per_video:(v + 1) * per_video],
            spec, rng, palette, phrases)
        entries.append(entry)
    probes = _probes(rng, truth, spec.probed)
    (root / "manifest.json").write_text(json.dumps(
        {"schema_version": 1, "videos": entries}, indent=2) + "\n",
        encoding="utf-8")
    (root / "labels.jsonl").write_text(
        "".join(json.dumps(p, sort_keys=True) + "\n" for p in probes),
        encoding="utf-8")
    config = {"seed": seed, "segmenter.k_seconds": 0,
              "train.labels_path": "labels.jsonl", **spec.config}
    (root / "run.conf").write_text(
        "".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    (root / "truth.json").write_text(json.dumps(
        {"seed": seed, "spec": asdict(spec), "videos": truth},
        sort_keys=True) + "\n", encoding="utf-8")


def world(cache: Path, name: str, spec: WorldSpec, seed: int) -> Path:
    """The world for (workload, seed), generated once and cached on disk."""
    root = cache / f"{name}-{seed}"
    stamp = root / "READY"
    if stamp.is_file() and stamp.read_text() == spec.key():
        return root
    generate(root, spec, seed)
    stamp.write_text(spec.key())
    return root


def footage_s(root: Path) -> float:
    manifest = json.loads((root / "manifest.json").read_text())
    return sum(v["duration_ms"] for v in manifest["videos"]) / 1000.0


def scene_at(truth: dict, video_id: str, at_ms: int) -> dict:
    """The planted scene that contains ``at_ms``."""
    scenes = truth["videos"][video_id]
    i = bisect.bisect_right([s["start_ms"] for s in scenes], at_ms) - 1
    return scenes[max(i, 0)]


def prepare_stagewise(root: Path, src_digest: str) -> None:
    """Segment labels and per-segment truth the stage chain needs.

    ``gelid train`` takes segment labels, so the probes are matched to
    segments here, with gelid's own functions, before anything is timed.
    The timed chain recomputes the same segments. Segment ids depend on
    gelid's segmentation, so both files are rebuilt whenever the sources
    (``src_digest``) differ from the ones that built them.
    """
    stamp = root / "seg_truth.src"
    if stamp.is_file() and stamp.read_text() == src_digest:
        return
    from gelid.config import load_config
    from gelid.pipeline import (load_label_probes, load_manifest,
                                match_probes, parse_subtitle_file)
    from gelid.frames import load_track
    from gelid.segmentation import segment_video

    config = load_config(str(root / "run.conf"))
    segments = []
    for entry in load_manifest(root / "manifest.json").videos:
        segments += segment_video(
            load_track(entry.frames, entry.video_id, entry.duration_ms,
                       config.bins_per_channel),
            parse_subtitle_file(entry.subtitles, entry.video_id),
            config.segmenter_config())
    labels = match_probes(load_label_probes(root / "labels.jsonl"), segments)
    (root / "seg_labels.jsonl").write_text("".join(
        json.dumps({"segment_id": sid, "label": labels[sid]},
                   sort_keys=True) + "\n" for sid in sorted(labels)),
        encoding="utf-8")
    truth = json.loads((root / "truth.json").read_text(encoding="utf-8"))
    seg_truth = {}
    for s in segments:
        scene = scene_at(truth, s.video_id, (s.start_ms + s.end_ms) // 2)
        seg_truth[s.segment_id] = {"context": scene["context"],
                                   "label": scene["label"],
                                   "issue": scene["issue"]}
    (root / "seg_truth.json").write_text(json.dumps(seg_truth, sort_keys=True),
                                         encoding="utf-8")
    stamp.write_text(src_digest)
