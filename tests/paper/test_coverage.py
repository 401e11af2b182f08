"""Every paper artifact the reproduction checks keeps its test module:
Tables I-IV, Figs. 4-10, the two ablations and union vs. intersection.
A module that is dropped, renamed away or emptied of tests fails here."""

import ast
from pathlib import Path

#: Paper artifact -> the module of this directory that checks it.
ARTIFACTS = {
    "Table I": "test_table1_metadata.py",
    "Table II": "test_table2_apriori_example.py",
    "Table III": "test_table3_parameters.py",
    "Table IV": "test_table4_anomaly_census.py",
    "Fig. 4": "test_fig4_kl_timeseries.py",
    "Fig. 5": "test_fig5_bin_identification.py",
    "Fig. 6": "test_fig6_roc.py",
    "Fig. 7": "test_fig7_voting_miss.py",
    "Fig. 8": "test_fig8_voting_fp.py",
    "Fig. 9": "test_fig9_fp_itemsets.py",
    "Fig. 10": "test_fig10_cost_reduction.py",
    "maximal-only ablation (II-B)": "test_ablation_maximal.py",
    "voting-threshold ablation (III-C)": "test_ablation_voting.py",
    "union vs. intersection (II-A)": "test_ablation_union_vs_intersection.py",
}


def test_every_artifact_has_a_module_with_tests():
    here = Path(__file__).parent
    assert len(ARTIFACTS) == 14
    modules = {path.name for path in here.glob("test_*.py")}
    assert modules - {Path(__file__).name} == set(ARTIFACTS.values())
    for artifact, module in ARTIFACTS.items():
        tree = ast.parse((here / module).read_text())
        assert any(
            isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
            for node in ast.walk(tree)
        ), f"{artifact}: {module} defines no test"
