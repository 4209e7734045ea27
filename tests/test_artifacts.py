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

The chain's compare covers one scenario, where no critical-distance
analysis applies, so ``compare_cd.json`` pins the ``{"applies": false,
"reason": ...}`` document. The model documents are version 4: each forest
one object of packed node arrays, pairwise forests in pair order with no
stored pair indices, no ``mean_costs`` in the sunny payload, and every
array a typed block of its dtype, shape and base64 bytes.

A second chain pins the rank path: three selectors on three runtime
bundles under the 2015 rules, two holdout splits each, with one (scenario,
split, metric) whose SBS and VBS coincide, so its gap is undefined in all
three reports. It pins the reports, the compare CSV, JSON and stdout, and
an ``--ooc`` run at ``--alpha 0.1``, and checks that each report's
``aggregate_gap`` is the average gap ``compare`` gives that report alone.

The sha256 of every output file, and of the scenario bundles themselves,
must match the pinned values (for the second chain, of every report and
compare output). A refactor or speedup that changes any of these bytes is
a behaviour change. After a deliberate artifact change (one that bumps
``MODEL_VERSION`` and says so in CHANGES.md) print the new
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

SYSTEMS = ("regression", "pairwise", "cluster")

EXPECTED = {
    "out/cluster.csv": "09c4f575e08cf80738a2985b91ba84a2f2f1a6b509a63e487bdd4454484a561a",
    "out/cluster.json": "5446aedff634cddec9f1263d3a4e6feb3bd9880f75c87662014a9fdd071b9b6c",
    "out/cluster_model.json": "e759fca225114b31ca0df54038f8d6c6dc237c2f130227e448679b08aad53be5",
    "out/cluster_preds.csv": "6428f461221dc862f4c5fcd3c98aa27570906edb1112f891ac92689d1cb169a2",
    "out/compare.json": "8c613a6440708360993c9fd9a74a40ba7c53257d5c74bcc4d8b6d06a26bc8218",
    "out/compare_cd.json": "fbd02e070e19cf76ff1e2e59d144d4f5aa5cc840fcca57f7a212c574d7557fa3",
    "out/compare_ranks.csv": "d1100ce25bdfdbb3b7e74c604b119c629c6bfbef2e64c958f25e02e3afeccbea",
    "out/compare_scores.csv": "845d27e4a067ab7b9fc7795679a2f1cb8eea3a79b683df43dbe3b6050a5b6ed9",
    "out/pairwise.csv": "c02fa5a46fb75e7d31b1fafcca04b3fe5b659c2bcbfb5174bf94f00c115615de",
    "out/pairwise.json": "b7c3059218edab946b5d8041d944a2c3e02b489fc745ffe31e468557cdb2ebe4",
    "out/pairwise_knobs_model.json": "efec868ced80d880804d44ef7bd7695b1a742ece7b0bc8d6f57fc36de42dbefc",
    "out/pairwise_knobs_preds.csv": "621f24cb3a71dda444d46af438b681fc4a3255793d234a1c5c2d02e75508c9a4",
    "out/pairwise_model.json": "2bd77f963bd3972998bfea2da251b58e68dbf917694368cd7d5997f8a1547d75",
    "out/pairwise_preds.csv": "97c330c82d42111216531626f4aaab2f4da408003363a44f6993275e3f4873aa",
    "out/quality_baselines.json": "a445a0b3977bb69c95191c5cd178013192fb9b37373bdd3d1258d08fede76fc7",
    "out/quality_model.json": "56c6f3a3019c134ddd948b9c36e0ccd8cb5bb9743452d9b19b969cceac903f4e",
    "out/quality_preds.csv": "023748d01556b18886c500f88b0d446ed1a7c7dcffa0417a824a3d72e1f18d1a",
    "out/quality_report.csv": "bee51d187e6fdc5a04b769e73e7c21a54c061e6326561750e83b479b043820c1",
    "out/quality_report.json": "baed87bcc6aa624734698424d30a0280ea51debb590a9328a70a3b740758cc8f",
    "out/regression.csv": "902e11ebdad2625b0b5ad07367ca24c51bbd344e21335fd6648723074bcf410c",
    "out/regression.json": "8a4461d4c8aa75d3ae7189174a0a32344531ee934003749530604ff432c0a38f",
    "out/regression_knobs_model.json": "70b9519316a6995f9b74a9775eb1a812b8f13c477c36d6f49a6cc9b978a525b7",
    "out/regression_knobs_preds.csv": "415b11e0c45af0bc02a91bfebd7c273ce1c3b2254ad9a3825a8f8a1991edc1a7",
    "out/regression_model.json": "01b2694b57337cf3ba697aa718f7c81dc2e437551051a2cdee85c40d904f908f",
    "out/regression_preds.csv": "fc64231fbaccd1480910f5c4efe4daa86faf8932ee9ebf5233b5749c6db3173b",
    "out/regression12.csv": "7f146dc603f85b946e5befb112c52b231000413cb012825171b17aad06230e85",
    "out/regression12.json": "0a90f0194a6fe88da532d7b9b2dbd4ad49911fa264533ccabfdc8ea2d00805af",
    "out/regression12_model.json": "f234a1c918f5a9ebfbf6b4eeed5440f2ca250bed863e46339ff5ea0b2a0e8bdf",
    "out/regression12_preds.csv": "415b11e0c45af0bc02a91bfebd7c273ce1c3b2254ad9a3825a8f8a1991edc1a7",
    "out/runtime_baselines.json": "4b251174752b5900eb2fea87a07324273224026b52d39b20c93ce3562cf742eb",
    "out/stacking.csv": "fa5929207c0a35d0a2d65d9374c8e532e9fe18f1d479af6b1aca6459b5a8306a",
    "out/stacking.json": "e529aa7775c99b82e35e818b63274c754e49576b2f3b8ae77992703c3aa4adfc",
    "out/stacking_model.json": "298d0f2f0c087ef9eef325b3e0ba79f1b0840bea55b183e9965214a7d1c5ee79",
    "out/stacking_preds.csv": "7fb03d3f8c329ef3cd1a10a38ddffac88a7b4b28b4454da4be1216702a19fa8b",
    "out/stacking12.csv": "40b95187818b7ab24baf947d9ce62442354b5f50590d97eaf43ae7dd33d90540",
    "out/stacking12.json": "2a78f06bbdcce7b04a5c5178e89f8f1f47fca6b4b654971e5b55efa8438ddced",
    "out/stacking12_model.json": "8ec2b9d37a4658e92bebb30bf59fadb487cc7d0ee8762562134afd6cb367e6ae",
    "out/stacking12_preds.csv": "415b11e0c45af0bc02a91bfebd7c273ce1c3b2254ad9a3825a8f8a1991edc1a7",
    "out/study.json": "85e70eedda3b35d66da57dd3f4df504c656e624aadcbaf02e29ac55a3b0e18b5",
    "out/study_ecdf.csv": "900eb8a0473e99a0931de54bdf3504d701c13097cad50de14d9cc0684903c67e",
    "out/study_samples.csv": "30aa43ea7c7ea3d198f6d7029bee84bfd3a50f6c0ca632caded727d13ee615cd",
    "out/sunny.csv": "1da16486f71656691e5e9c38711ca632d6960f8c226169ac7ebaf6cf04605c34",
    "out/sunny.json": "751136e605323ed128565fc1d1d934f9655479556408505c263b0f7473669722",
    "out/sunny_model.json": "09141fa732b97b566f2bc70c9542c3deccdf75624e35fe92aa4ec2781ef2564a",
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

# The second chain's reports and compare outputs (see the module docstring).
EXPECTED_COMPARE = {
    "out/cluster_random7.csv": "923ccd1a137b92727a3e2896bd5a89d5d888ede7a8a4c019fdca914992b6eb59",
    "out/cluster_random7.json": "6480bd4faec278ec2563cf2305b1396b734fd2a0ad387ad7e295dc436a358c8f",
    "out/cluster_random8.csv": "c8b9dcb611fe9b671b6614ccf52109a14e45b7b98e10bdb7c90a04513aad30d3",
    "out/cluster_random8.json": "6adb407b70ffd5966906d7f16b2fa805c80a6aad9f97659f7a3d1e8488eccf1a",
    "out/cluster_random9.csv": "182432b99f8c187cf06705103e53f6336faa9406e469b12bf42dd5d4ef24bcb1",
    "out/cluster_random9.json": "49ef55710568dc5bc92b062f107b9247123b61bd9b7ac1660b4b9ff6dc396e41",
    "out/compare.json": "9a178225ec8b4981f7c76237686049ad50e524bd6ca85bdde283647725757dee",
    "out/compare_cd.json": "5bb54d802f5d53fea7d927b8039c5341cd311a8056321d30867523c4f17c65b2",
    "out/compare_ranks.csv": "7bc906de0dade472eb3a8fe4f4ce0f06990cba07ec3d326d827fea8cbbc5b535",
    "out/compare_scores.csv": "64dd10f327214065ad9d57f9df7132a3905041df3f7ca260af05f03e3380bda2",
    "out/compare_stdout.txt": "151dca4dff479c8c4cf59a134afb96f2cef1db911e5e632b6e3f631ac556c089",
    "out/ooc_cd.json": "d2df6702942ed02d3341761020206c05f7a0031753658de30512f2de36265fff",
    "out/ooc_ranks.csv": "dd56e16fec874f9f2414bbe23cab6b2451b6b0b75c666b998d539ea191226eb4",
    "out/ooc_scores.csv": "bf85cc327744429f9dde8a1776224efde060daff74fe34b328631ecefe71e8cf",
    "out/ooc_stdout.txt": "46336797f15ebd06fa218c845bb208fe0206d7d34ecfe39c9db6e2d396e6849d",
    "out/pairwise_random7.csv": "9de89e207794a5279bc87cc433d7ddff58cd6be41d4e65ccc4eb46b37b105195",
    "out/pairwise_random7.json": "f9b4dfd6bf976d9c368a6b596c22b07ad37aa276db45d9787181379854845688",
    "out/pairwise_random8.csv": "4cba21b7f0686c9f751c0fc5153af08f62c4de8915a004be5d037e286261258e",
    "out/pairwise_random8.json": "ed9895638cf665eb04aa3d29f1f667259c2fdd86cc35e5dfab8c50f166ecde52",
    "out/pairwise_random9.csv": "28545e7790193e732c147503dc064bea109111bf78bb6539cb0ae455fcb69b2c",
    "out/pairwise_random9.json": "df8515ae6358ac10850394271e6056134d5a716404363900ae27b2a3307ecb1b",
    "out/regression_random7.csv": "4e3db6a58c0581f880b9c6661477288b0183d9602f11eca8f999d2bfe24848ef",
    "out/regression_random7.json": "42919c73e7b8d1888c3b077ebdd8b53063e1e4f33e4877e6d1c2265a9c58ad56",
    "out/regression_random8.csv": "5a16a4eb7ccd922ce738deec6279a57efc073eb7c1086ce5997073b5889b2d0b",
    "out/regression_random8.json": "811161cfbddb8393efbc8be365e40d6e159e62a51788b834d89c4900fbe12968",
    "out/regression_random9.csv": "251ef32b79d5ab5cfa2fba1e58688a4a7817992855db2d95080f561268585f20",
    "out/regression_random9.json": "ef5ca67e943ed840ac1d08e5c56b47b43a1ee582779366ffc56663503826fef3",
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
        _cli("predict", "--scenario", runtime, "--model", model, "--out", preds)
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
        _cli("predict", "--scenario", runtime, "--model", model, "--out", preds)
        _cli("evaluate", "--scenario", runtime, "--predictions", preds, "--system", kind,
             "--mode", "oasc2017", "--out", out / f"{kind}12", "--json")
    # the grower's knobs away from their defaults: leaves of two, one feature per split
    for kind in ("regression", "pairwise"):
        model, preds = out / f"{kind}_knobs_model.json", out / f"{kind}_knobs_preds.csv"
        _cli("train", "--scenario", runtime, "--selector", kind, "--hp", "n_trees=12",
             "--hp", "min_leaf=2", "--hp", "features_per_split=1", "--mode", "oasc2017",
             "--out", model)
        _cli("predict", "--scenario", runtime, "--model", model, "--out", preds)

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


def run_compare_chain(root: Path) -> dict[str, str]:
    """Evaluate three selectors on three bundles under the 2015 rules, then
    compare them; map each report and compare output to its sha256."""
    work, out = root / "work", root / "out"
    work.mkdir()
    out.mkdir()
    reports = []
    for seed in (7, 8, 9):
        scenario = work / f"random{seed}"
        write_scenario(random_scenario(seed, n_algos=4, n_insts=24), scenario)
        for kind in SYSTEMS:
            preds = work / f"{kind}{seed}"
            preds.mkdir()
            for split in (0, 1):
                model, chosen = work / "model.json", ("--splits", "holdout:2", "--split-id", split)
                _cli("train", "--scenario", scenario, *chosen, "--selector", kind, "--hp", "n_trees=3",
                     "--mode", "icon2015", "--out", model)
                _cli("predict", "--scenario", scenario, *chosen, "--model", model,
                     "--out", preds / f"predictions_split{split}.csv")
            report = out / f"{kind}_random{seed}"
            _cli("evaluate", "--scenario", scenario, "--splits", "holdout:2", "--predictions", preds,
                 "--system", kind, "--mode", "icon2015", "--out", report, "--json")
            reports.append(report)
    csvs = [r.with_suffix(".csv") for r in reports]
    (out / "compare_stdout.txt").write_text(_cli("compare", *csvs, "--mode", "icon2015", "--out", out / "compare"))
    _cli("compare", *csvs, "--mode", "icon2015", "--json", "--out", out / "compare")
    (out / "ooc_stdout.txt").write_text(
        _cli("compare", *csvs, "--mode", "icon2015", "--ooc", "cluster", "--alpha", "0.1", "--out", out / "ooc")
    )
    # evaluate's aggregate gap is compare's average gap over the same report
    for report in reports:
        single = work / "single"
        _cli("compare", report.with_suffix(".csv"), "--mode", "icon2015", "--json", "--out", single)
        summary = json.loads(report.with_suffix(".json").read_text())
        assert json.loads(single.with_suffix(".json").read_text())["avg_gap"] == {
            summary["system"]: summary["aggregate_gap"]
        }
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
    }


def test_chain_outputs_are_byte_identical(tmp_path):
    assert MODEL_VERSION == 4  # the version the pinned digests were recorded at
    got = run_chain(tmp_path)
    # the chain must exercise the presolver, or its digests would say nothing about it
    presolve = json.loads((tmp_path / "out" / "regression_model.json").read_text())["presolve"]
    assert presolve
    changed = sorted(name for name in got.keys() | EXPECTED.keys() if got.get(name) != EXPECTED.get(name))
    assert not changed, f"artifact bytes changed: {changed}"


def test_multi_scenario_compare_is_byte_identical(tmp_path):
    got = run_compare_chain(tmp_path)
    out = tmp_path / "out"
    # one undefined gap, shared by the three systems' reports, and a rank path that runs
    undefined = {
        line.split(",", 1)[1]
        for path in out.glob("*.csv")
        for line in path.read_text().splitlines()
        if line.startswith("# undefined_gap: ")
    }
    assert len(undefined) == 1
    assert json.loads((out / "compare_cd.json").read_text())["cliques"]
    assert json.loads((out / "ooc_cd.json").read_text())["alpha"] == 0.1
    names = got.keys() | EXPECTED_COMPARE.keys()
    changed = sorted(name for name in names if got.get(name) != EXPECTED_COMPARE.get(name))
    assert not changed, f"compare bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    for chain in (run_chain, run_compare_chain):
        print(f"# {chain.__name__}")
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in chain(Path(tmp)).items():
                print(f'    "{name}": "{digest}",')
