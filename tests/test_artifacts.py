"""Byte-stability contract: a fixed CLI chain reproduces pinned digests.

Two small generated bundles go through the real command-line entry point:

* a learnable runtime bundle: every selector family at three trees, trained
  under the 2017 rules with the static presolver on, then predict, evaluate
  (CSV and JSON), compare over the five reports, a two-seed seed study and
  the baselines summary; then regression and stacking again at twelve
  trees, where the order in which tree outputs are summed shows in the bits;
  and regression and pairwise train/predict at twelve trees with
  ``min_leaf=2`` and ``features_per_split=1``, the tree grower's knobs;
* a quality bundle with the maximize direction: the baselines summary and a
  regression train/predict/evaluate chain.

The sha256 of every output file, and of the scenario bundles themselves,
must match the pinned values. A refactor or speedup that changes any of
these bytes is a behaviour change. After a deliberate artifact change (one
that bumps ``MODEL_VERSION`` and says so in CHANGES.md) print the new
digests with ``PYTHONPATH=src python tests/test_artifacts.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

from asbench import write_scenario
from asbench.cli import main
from asbench.selectors import MODEL_VERSION, SELECTOR_KINDS

from gen import learnable_scenario, random_scenario

EXPECTED = {
    "out/cluster.csv": "09c4f575e08cf80738a2985b91ba84a2f2f1a6b509a63e487bdd4454484a561a",
    "out/cluster.json": "5446aedff634cddec9f1263d3a4e6feb3bd9880f75c87662014a9fdd071b9b6c",
    "out/cluster_model.json": "c84ba3529dda7a5240c91e37947e98df05da5da154af1ed1b8d37e2b3b89221d",
    "out/cluster_preds.csv": "6428f461221dc862f4c5fcd3c98aa27570906edb1112f891ac92689d1cb169a2",
    "out/compare.json": "a1abcaa933f3a4c2fb9a4dfc59daefb02d2e7e28f9c77d0e6f753fd3cfe9677d",
    "out/compare_cd.json": "38e0b9de817f645c4bec37c0d4a3e58baecccb040f5718dc069a72c7385a0bed",
    "out/compare_ranks.csv": "eeee85105bf1eaf9eda7bbae5ce6e28fecf5ea8b597d50b5efd3f77d547da82e",
    "out/compare_scores.csv": "44e64604cd0ab61768a6271a5eaef38245ce830644a7a70574b7329f36acd2f2",
    "out/pairwise.csv": "c02fa5a46fb75e7d31b1fafcca04b3fe5b659c2bcbfb5174bf94f00c115615de",
    "out/pairwise.json": "b7c3059218edab946b5d8041d944a2c3e02b489fc745ffe31e468557cdb2ebe4",
    "out/pairwise_knobs_model.json": "7802b84e9524d12e623f0b8eafc8c0e8faae8254c47da80b4903e24c46c091e1",
    "out/pairwise_knobs_preds.csv": "aa58ac44c68dccad0b789210a1d30295e8b6bd6f1e14734b42202b3f51ae7c15",
    "out/pairwise_model.json": "91bc1db2a4a37885a51e8e4a4ddc4ae72d739862c23eb35de3ad481e7d9ffa0a",
    "out/pairwise_preds.csv": "97c330c82d42111216531626f4aaab2f4da408003363a44f6993275e3f4873aa",
    "out/quality_baselines.json": "a445a0b3977bb69c95191c5cd178013192fb9b37373bdd3d1258d08fede76fc7",
    "out/quality_model.json": "937c191703dd4ecf62e67541e7dcfab8cdd458bbd377a9a9cbcb0bdddea10f82",
    "out/quality_preds.csv": "023748d01556b18886c500f88b0d446ed1a7c7dcffa0417a824a3d72e1f18d1a",
    "out/quality_report.csv": "bee51d187e6fdc5a04b769e73e7c21a54c061e6326561750e83b479b043820c1",
    "out/quality_report.json": "baed87bcc6aa624734698424d30a0280ea51debb590a9328a70a3b740758cc8f",
    "out/regression.csv": "d66a0c2c722a44ebcb85d87faa7dafc18cf46f5137af60ccd7e5215b96e00df9",
    "out/regression.json": "5d29e3dfa12c137a0640f4b3c0ebabb4b9d7fbcae788f57a0f1ae6bbc54684cd",
    "out/regression_knobs_model.json": "cba6535bb023405b0b282c5b4f94b90d66e9f2d82f1171d0d1e3f490f9bfa566",
    "out/regression_knobs_preds.csv": "1f764d1051f83859275fa9ec5bb71dfa4a285e8c021f6df89d677bd444aa06f9",
    "out/regression_model.json": "0089ba7f9daf1055f640aa08f2a74a72baabbdfc0b8609b0c7e092f1e3c65e6d",
    "out/regression_preds.csv": "6dc86df27032b44120ac6dd266fd19f1cdeda35945a2499ee365c2ddd2f4cbe6",
    "out/regression12.csv": "7f146dc603f85b946e5befb112c52b231000413cb012825171b17aad06230e85",
    "out/regression12.json": "0a90f0194a6fe88da532d7b9b2dbd4ad49911fa264533ccabfdc8ea2d00805af",
    "out/regression12_model.json": "793c911692c5bdd641516efef5ad1493823e2b390feade49d6fcef6edea008fa",
    "out/regression12_preds.csv": "415b11e0c45af0bc02a91bfebd7c273ce1c3b2254ad9a3825a8f8a1991edc1a7",
    "out/runtime_baselines.json": "4b251174752b5900eb2fea87a07324273224026b52d39b20c93ce3562cf742eb",
    "out/stacking.csv": "106f94c7560409b2a2aa1286251c3eac54e447f87a97e8d7a5efdc6cd5aa2531",
    "out/stacking.json": "6c1e6b48218d066852ea998169c430888608bf8cf74164c95a1220ab172da64d",
    "out/stacking_model.json": "ee7658296f74f611cbdee7b53953770d175f3ce826c96680089a0a5e42d0bf47",
    "out/stacking_preds.csv": "fdf7e2d930fddff26d8d11adb89968d331164183bbc243aed9813f0fa343190a",
    "out/stacking12.csv": "40b95187818b7ab24baf947d9ce62442354b5f50590d97eaf43ae7dd33d90540",
    "out/stacking12.json": "2a78f06bbdcce7b04a5c5178e89f8f1f47fca6b4b654971e5b55efa8438ddced",
    "out/stacking12_model.json": "acf9cc082e4e28002079618ca2e87beb60b438e67f5efd70f2e6bfa722a38771",
    "out/stacking12_preds.csv": "415b11e0c45af0bc02a91bfebd7c273ce1c3b2254ad9a3825a8f8a1991edc1a7",
    "out/study.json": "85e70eedda3b35d66da57dd3f4df504c656e624aadcbaf02e29ac55a3b0e18b5",
    "out/study_ecdf.csv": "900eb8a0473e99a0931de54bdf3504d701c13097cad50de14d9cc0684903c67e",
    "out/study_samples.csv": "30aa43ea7c7ea3d198f6d7029bee84bfd3a50f6c0ca632caded727d13ee615cd",
    "out/sunny.csv": "1da16486f71656691e5e9c38711ca632d6960f8c226169ac7ebaf6cf04605c34",
    "out/sunny.json": "751136e605323ed128565fc1d1d934f9655479556408505c263b0f7473669722",
    "out/sunny_model.json": "6035c318eac5b221922bbf4355b9eec804d0a625b1422f418f81c7f3b907fbdd",
    "out/sunny_preds.csv": "5e82fdfcdf030d4a41ea164f37048ab4a0c894824d9aec3eceea130904be814c",
    "quality/description.txt": "6eea6d95e2f8036bd640688a7b7218c9aa2b967c06cde46433aa8ae21eb3a336",
    "quality/features.csv": "b2b29f1ce7f1347c90c6977ed8be52566cf1443169de52e68f0cc420586e05ea",
    "quality/runs.csv": "450351f18886927ce64aa6c10df18a0a2454898e9cf38600504c1ef1e7b6e0b1",
    "quality/splits.csv": "3f7b2229569f779d16b4baaae343af7f824c810bfe7010a86e11fad754bea932",
    "runtime/description.txt": "a9c8ebd0144e0d755104822d9779a90fa54828b8c7141310753a31f96ba86fdf",
    "runtime/feature_costs.csv": "b477de7933c5dc21cccf7a2041674439397b50b519a6ab20cc9affefaa92248b",
    "runtime/features.csv": "1460eb0c7a4725a40bb8d03d627697b5a9ff4c5c74e42337a6a2482f0da54b7b",
    "runtime/runs.csv": "b03210a5836fc67b2347711e99d8637238e19c98e85ffd502e3cd56e5f49e192",
    "runtime/splits.csv": "cef4031b35a2fd40c876049e7667236363fb1361b9cc0ae1942a8646414275bb",
}


def _cli(*argv) -> str:
    """Run one command in-process; return its stdout, fail on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"asbench {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def run_chain(root: Path) -> dict[str, str]:
    """Run the fixed chain under ``root``; map each output's name to its sha256."""
    runtime = root / "runtime"
    write_scenario(learnable_scenario(n_train=60, n_test=20, seed=5), runtime)
    quality = root / "quality"
    write_scenario(
        replace(random_scenario(11, n_algos=4, n_insts=30, objective="quality"), direction="maximize"),
        quality,
    )
    out = root / "out"
    out.mkdir()
    (out / "runtime_baselines.json").write_text(_cli("baselines", "--scenario", runtime, "--json"))
    (out / "quality_baselines.json").write_text(_cli("baselines", "--scenario", quality, "--json"))

    reports = []
    for kind in SELECTOR_KINDS:
        model, preds, report = out / f"{kind}_model.json", out / f"{kind}_preds.csv", out / kind
        _cli("train", "--scenario", runtime, "--selector", kind, "--hp", "n_trees=3",
             "--mode", "oasc2017", "--out", model)
        _cli("predict", "--scenario", runtime, "--model", model, "--mode", "oasc2017", "--out", preds)
        _cli("evaluate", "--scenario", runtime, "--predictions", preds, "--system", kind,
             "--mode", "oasc2017", "--out", report, "--json")
        reports.append(report.with_suffix(".csv"))
    _cli("compare", *reports, "--out", out / "compare")
    _cli("compare", *reports, "--json", "--out", out / "compare")
    _cli("seed-study", "--scenario", runtime, "--selector", "pairwise", "--hp", "n_trees=3",
         "--n-seeds", "2", "--out", out / "study")
    # at 8 or more trees the order in which tree outputs are summed shows in the bits
    for kind in ("regression", "stacking"):
        model, preds = out / f"{kind}12_model.json", out / f"{kind}12_preds.csv"
        _cli("train", "--scenario", runtime, "--selector", kind, "--hp", "n_trees=12",
             "--mode", "oasc2017", "--out", model)
        _cli("predict", "--scenario", runtime, "--model", model, "--mode", "oasc2017", "--out", preds)
        _cli("evaluate", "--scenario", runtime, "--predictions", preds, "--system", kind,
             "--mode", "oasc2017", "--out", out / f"{kind}12", "--json")
    # the grower's knobs away from their defaults: leaves of two, one feature per split
    for kind in ("regression", "pairwise"):
        model, preds = out / f"{kind}_knobs_model.json", out / f"{kind}_knobs_preds.csv"
        _cli("train", "--scenario", runtime, "--selector", kind, "--hp", "n_trees=12",
             "--hp", "min_leaf=2", "--hp", "features_per_split=1", "--mode", "oasc2017",
             "--out", model)
        _cli("predict", "--scenario", runtime, "--model", model, "--mode", "oasc2017", "--out", preds)

    model, preds = out / "quality_model.json", out / "quality_preds.csv"
    _cli("train", "--scenario", quality, "--selector", "regression", "--hp", "n_trees=3",
         "--out", model)
    _cli("predict", "--scenario", quality, "--model", model, "--out", preds)
    _cli("evaluate", "--scenario", quality, "--predictions", preds, "--system", "regression",
         "--out", out / "quality_report", "--json")

    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_chain_outputs_are_byte_identical(tmp_path):
    assert MODEL_VERSION == 1  # the version the pinned digests were recorded at
    got = run_chain(tmp_path)
    # the chain must exercise the presolver, or its digests would say nothing about it
    presolve = json.loads((tmp_path / "out" / "regression_model.json").read_text())["presolve"]
    assert presolve
    changed = sorted(name for name in got.keys() | EXPECTED.keys() if got.get(name) != EXPECTED.get(name))
    assert not changed, f"artifact bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in run_chain(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
