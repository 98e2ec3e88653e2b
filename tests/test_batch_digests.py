"""Columnar weekly batches give the bytes the per-record path gave.

The digests below were recorded with the per-record pipeline that the
columnar `WeeklyBatch` replaced, where every row was an object holding a
dict of floats and a dict of tokens. Any change to a fence, a median, a
mode, a one-hot block, the order of a segment-mean sum, a generator draw
or a written cell changes them. The replay digests pin a whole 2-week
`replay --plot` through `main`: every output file but the charts, and
the checkpoint without its GBT models, both recorded before GBT moved to
(binned row, label) groups, which changed those models' last bits and
nothing else. The checkpoint digest was recorded again when the four
kinds came to share one CV split per set, which changed the validation
F1s and nothing else, and again when the grower came to drop every
forest split whose two children are leaves of one value, which changed
the forests' trees and nothing else, and again when the checkpoint came
to write each point's cohort once, as a label per registry row, and each
run log's hash chain; laid out as the earlier writer laid it out, it
still hashes to the digest recorded before that change. The checkpoint
digest and the two pipeline digests were recorded again when the
checkpoint's version became its only one (2): the pipeline and every
model lost their own `schema_version`, and every model its `kind`; with
those keys deleted and the version set to 2, the earlier documents hash
to the new digests. The same three were recorded again when the stored
values the program can work out or never reads went: the pipeline's
`categorical_features` (its vocabularies' keys) and
`pca_explained_variance_ratio`, and the registry's `next_label_index`
(fresh labels number on from those in use); with those keys deleted, the
earlier documents hash to the new digests. When each tree came to be
one pre-order list (version 3), the checkpoint digest was kept: the test
lays the trees out as nested dicts again and sets the version to 2, and
the version-3 document's own digest is pinned beside it. The four charts
have their own digest, recorded before `summary.csv` came to be appended
week by week.
"""

import gzip
import hashlib
import json

import numpy as np
import pytest

from cohortsense.cli import main
from cohortsense.preprocess import clean, fit_pipeline, pipeline_to_json, vectorize_week
from cohortsense.synthgen import CohortPlan, build_default_profiles, generate_cohort

from columns import batch_of
from nested_trees import nested_doc
from stored_generic import final_states, version_3_doc

SEGMENTS = ("night", "morning", "afternoon", "evening")


def hand_rows(week, tokens):
    """Rows of a hand-built batch in shuffled order. Participant h2 misses
    its whole evening segment; h1 has two rows for one (day, segment); no
    row of (h3, afternoon) observes x and no row of (h4, night) a token, so
    both fall back to batch statistics; h5's morning tokens tie; one x is
    an outlier."""
    rng = np.random.default_rng(700 + week)
    days = [f"2019-04-{7 * (week - 1) + d:02d}" for d in (1, 2, 3)]
    rows = []
    for n, pid in enumerate(("h1", "h2", "h3", "h4", "h5")):
        for day in days:
            for seg in SEGMENTS:
                if pid == "h2" and seg == "evening":
                    continue
                x, y = (rng.random(2) * (1 + n)).tolist()
                rows.append([pid, day, seg, x, y, tokens[(n + len(rows)) % len(tokens)]])
    rows.append(["h1", days[1], "morning", 0.123456789, 0.987654321, tokens[0]])
    for row in rows:
        if row[0] == "h3" and row[2] == "afternoon":
            row[3] = None
        if row[0] == "h4" and row[2] == "night":
            row[5] = None
    morning = [r for r in rows if r[0] == "h5" and r[2] == "morning"]
    morning[0][5], morning[1][5], morning[2][5] = "q", "p", None
    rows[3][4] = None
    rows[10][3] = None
    rows[17][3] = 40.0
    order = rng.permutation(len(rows))
    return [
        (pid, day, seg, {"x": x, "y": y}, {"c": c})
        for pid, day, seg, x, y, c in (rows[i] for i in order)
    ]


def mini_batches():
    pids = [f"P{i:03d}" for i in range(1, 43)]
    groups = {
        "G1": frozenset(pids[:14]),
        "G2": frozenset(pids[14:28]),
        "G3": frozenset(pids[28:]),
    }
    plan = CohortPlan(
        total_participants=42,
        lonely_count=18,
        weekly_group_membership={w: dict(groups) for w in (1, 2, 3)},
    )
    return generate_cohort(plan, build_default_profiles(), seed=3)


def hand_batches():
    # week 2 carries the token "zz", outside the vocabulary frozen in week 1,
    # which encodes all-zeros
    return [
        batch_of(hand_rows(1, ("p", "q", "r")), week=1),
        batch_of(hand_rows(2, ("q", "zz", "p", "r")), week=2),
    ]


def sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


DIGESTS = {
    "hand/pipeline": "3258dd514b89bb2c6c87e34252fb4a816c281fbde8ab833f957cea30e6ea69f7",
    "hand/vectors": "81f7329c68b82414e0de0220ba37a365c668f6f8ba6c74950f809fc14c0b8921",
    "mini/pipeline": "32d6ea7a7878dfe910f3d57c5d83c260e5f17fb6275df36165eaa50e94f9a2f8",
    "mini/vectors": "578aefdfe756b23e8c373fa8b90bd4cd89963c9ece504b829d1fa63cee0d29f4",
    "synth/labels.csv": "58dc574e5ab95e74340aab4208ea1b4f207348e4647425c2debb8a1b724beaa1",
    "synth/plan.json": "790343b9cb1847d10df69074fd7e7b617381b0fde30ff9c917fbbc913088a6ea",
    "synth/week_1.csv": "6e9da5c02f0263365b73e8f16607a1c5c7645db1b8d5a2767b49d999ab48a56a",
    "synth/week_2.csv": "f0b751ea47faad129dc498571cec5e203b81a674f08a17f472c31bf2ba4a916a",
    # every output file, then the checkpoint JSON with its GBT models removed:
    # as versions 2 and 3 laid it out, with the run's generic set, and as
    # version 4 writes it, without
    "replay/files": "ab7366fe526db8c7a25cf4a35246a345881cf8f7c5542193e2fa6b187f6a628d",
    "replay/checkpoint_without_gbt": "750737123f3d4af1729ce2b0717280b3256d560e97b52a0098d55250f54698e4",
    "replay/checkpoint_without_gbt/preorder": "7490463fdab79f4e39fa98f0fadce0f661f8bc89cd6ce24a5212d2275036aeac",
    "replay/checkpoint_without_gbt/without_generic": "2d8a1dec3153c5886c40f2b9a6eb1f13406201b11937300b87323316834186a2",
    # the four `--plot` charts of the same replay
    "replay/charts": "9f38c82c7f1c4e9cc43ce60a6d637b9be25290b77cfa31692f4e55accfdcdabd",
}

# every file of the default `synth --seed 42` (205 participants, 10 weeks),
# recorded with the row-by-row `csv.writer` and four generator calls per row
DEFAULT_SYNTH = {
    "labels.csv": "c50a38e7066d924dbe4c510c8113e1933843797aa7cb76f5a100cca9a4a95588",
    "plan.json": "bdf62f4735187f18b2622a76b287193665aba6ae839717c30cd1a48161e2b4d7",
    "week_1.csv": "38a4389896d8a6db2155c223c0466472755c935ac204cfd8019224356c32a8c9",
    "week_2.csv": "b949461fbaf35b044aa84a16481f401f29642a6e4dca81f36d46d0890068f7a5",
    "week_3.csv": "722da799fd18c3993093e92c7cf50d406f68246aaf2605c4f37e0159c7d4185f",
    "week_4.csv": "c7feb5d3ccab67dfcb2c49456d3d7dd05b989668775d46034ea05adb1d7fa1d1",
    "week_5.csv": "80fbf09d12031a8c48bd1aaae499ff909ca7173c080c9d99d6a593c2f314b566",
    "week_6.csv": "0d9a223eb9d10a65ef8ada1f505ebdddc79c52c4b1b93645df1cf68b75eb7360",
    "week_7.csv": "5e425c10437e86df88deaf2e4e642ae290e5c8f7a6cc8830f4646b71090a4902",
    "week_8.csv": "7586e24e2b550b8757225b63a5cc9a3be752108ea37f8aa3535100b1837b3003",
    "week_9.csv": "0f884c519ce038522d260c81358c2c2aa6e4ec94e3515e9476e8b948b18e91b7",
    "week_10.csv": "eaf21ba26a8544e81469863b8fa3e062e52c2a0459e2bd39b1820f74f0f2c983",
}


@pytest.mark.parametrize("name, make", [("hand", hand_batches), ("mini", mini_batches)])
def test_pipeline_and_vectors_match_the_per_record_path(name, make):
    batches = make()
    pipeline = fit_pipeline(batches[0], 0.9, clean(batches[0]))
    weeks = []
    for batch in batches:
        pids, X, omitted = vectorize_week(batch, pipeline, clean(batch))
        weeks.append({"pids": pids, "X": X.tolist(), "omitted": omitted})
    assert sha(pipeline_to_json(pipeline)) == DIGESTS[f"{name}/pipeline"]
    assert sha(weeks) == DIGESTS[f"{name}/vectors"]


def write_synth(tmp_path):
    """Synthesize the 36-participant, 2-week plan into ``tmp_path/synth``."""
    members = {
        "G1": [f"P{i:03d}" for i in range(1, 13)],
        "G2": [f"P{i:03d}" for i in range(13, 25)],
        "G3": [f"P{i:03d}" for i in range(25, 37)],
    }
    doc = {
        "total_participants": 36,
        "lonely_count": 15,
        "weekly_group_membership": {str(w): members for w in (1, 2)},
    }
    (tmp_path / "plan.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "synth"
    plan = str(tmp_path / "plan.json")
    assert main(["synth", "--seed", "42", "--out-dir", str(out), "--plan", plan]) == 0
    return out


def test_synth_writes_the_per_record_files(tmp_path):
    out = write_synth(tmp_path)
    written = {
        f"synth/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert written == {k: v for k, v in DIGESTS.items() if k.startswith("synth/")}


def test_synth_writes_the_pinned_default_cohort(tmp_path):
    # reaches G4's variable-spread profiles and weeks 5-10, which the
    # 36-participant plan above does not
    assert main(["synth", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == DEFAULT_SYNTH


def test_replay_writes_the_pinned_files(tmp_path, monkeypatch):
    data = write_synth(tmp_path)
    config = {"cv_folds": 3, "learners": {"forest_trees": 10, "gbt_rounds": 10}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out, checkpoint = tmp_path / "out", tmp_path / "state.json.gz"
    argv = ["replay", "--config", str(tmp_path / "config.json"), "--data-dir", str(data),
            "--out-dir", str(out), "--checkpoint", str(checkpoint), "--plot"]
    states = final_states(monkeypatch)
    assert main(argv) == 0
    files, charts = hashlib.sha256(), hashlib.sha256()
    for path in sorted(out.iterdir()):
        pin = charts if path.name.startswith("chart_") else files
        pin.update(f"{path.name}\n".encode() + path.read_bytes())
    state = json.loads(gzip.decompress(checkpoint.read_bytes()))
    version_3 = version_3_doc(state, states[-1].pool.generic)
    # the two documents share their specialized sets
    for model_set in [version_3["pool"]["generic"], *state["pool"]["specialized"].values()]:
        del model_set["models"]["gbt"]
    assert files.hexdigest() == DIGESTS["replay/files"]
    assert charts.hexdigest() == DIGESTS["replay/charts"]
    version_2 = nested_doc(dict(version_3, schema_version=2))
    assert sha(version_2) == DIGESTS["replay/checkpoint_without_gbt"]
    assert sha(version_3) == DIGESTS["replay/checkpoint_without_gbt/preorder"]
    assert sha(state) == DIGESTS["replay/checkpoint_without_gbt/without_generic"]
