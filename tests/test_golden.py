"""Golden outputs pinning serialization schemas and seeded streams.

If one of these fails after an intentional change to a schema or to the
random stream layout, regenerate the constants and note the break in the
changelog; they exist to make silent drift loud.
"""

from __future__ import annotations

import json

from admitsim import MarketConfig, matching_to_csv, sample_market, school_proposing_da
from admitsim.cli import main

SIMULATE_CSV = (
    "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university\n"
    "2,0,7434755675892716031,3,3,1,3,1,2,0,1,4,4\n"
    "2,0,77803131892610477,3,3,1,3,2,1,0,2,5,5\n"
)

INSTANCE_JSON = (
    '{"config": {"capacity": 1, "k": 2, "m_ratio": 1.0, "n": 3, "seed": 1, '
    '"signal": {"delta": 0.0, "kind": "iid"}}, '
    '"preferences": [[0, 2], [0, 1], [2, 1]], '
    '"signals": [[0, 0, 0.36457239618607573], [2, 0, 0.294132496655526], '
    "[0, 1, 0.02842224131579679], [1, 1, 0.5467129866124469], "
    "[2, 2, -0.7364540870016669], [1, 2, -0.16290994799305278]]}"
)

MATCHING_CSV = "student_id,university_id,rank\n0,0,1\n1,1,2\n2,2,1\n"

SWEEP_CSV = (
    "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university\n"
    "1,0,12467808127879573787,6,6,1,6,6,0,0,6,12,12\n"
    "1,0,11425928242767342472,6,6,1,4,4,0,2,4,8,8\n"
    "2,0,11475712343069784169,6,6,1,5,2,3,1,2,7,7\n"
    "2,0,12505594170494392219,6,6,1,6,3,3,0,3,9,9\n"
    "1,1,16284573993945758692,6,6,1,4,4,0,2,4,8,8\n"
    "1,1,9791734468858838757,6,6,1,4,4,0,2,4,8,8\n"
    "2,1,18115008548422440114,6,6,1,5,4,1,1,4,9,9\n"
    "2,1,9565533078676835473,6,6,1,5,2,3,1,2,7,7\n"
)

SWEEP_SUMMARY_CSV = (
    "k,delta,reps,mean_matched,se_matched,mean_rank1,se_rank1,mean_synergy,se_synergy,"
    "mean_u_student,se_u_student,mean_u_university,se_u_university\n"
    "1,0,2,5,1,5,1,5,1,10,2,10,2\n"
    "2,0,2,5.5,0.5,2.5,0.5,2.5,0.5,8,1,8,1\n"
    "1,1,2,4,0,4,0,4,0,8,0,8,0\n"
    "2,1,2,5,0,3,1,3,1,8,1,8,1\n"
)

VERDICTS_CSV = "rep,seed,university,verdict,witness\n" + "".join(
    f"{rep},{seed},{u},{verdict}\n"
    for rep, seed, verdicts in (
        (0, 11917523879341755967, ("NO,NULL",) * 3 + ("YES,5", "NO,NULL", "YES,3")),
        (1, 1713842872717758196, ("NO,NULL",) * 6),
        (2, 10735656317102617875, ("NO,NULL",) * 6),
    )
    for u, verdict in enumerate(verdicts)
)

VERDICTS_SUMMARY_CSV = (
    "rep,seed,yes_fraction\n"
    "0,11917523879341755967,0.333333\n"
    "1,1713842872717758196,0\n"
    "2,10735656317102617875,0\n"
)

COMPARE_CSV = (
    "rep,seed,diff_fraction\n"
    "0,10128210881749538955,0.333333\n"
    "1,6609312287773032911,0\n"
    "2,15752139279244931036,0\n"
)

COMPARE_STDOUT = '{"replications": 3, "mean_difference": 0.1111111111111111}\n'


def test_simulate_csv_golden(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["simulate", "--n", "3", "--k", "2", "--seed", "1", "--reps", "2",
                 "--out", str(out)]) == 0
    assert out.read_text() == SIMULATE_CSV


def test_instance_json_golden():
    inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=1))
    assert json.dumps(inst.to_json_dict(), sort_keys=True) == INSTANCE_JSON


def test_matching_csv_golden():
    inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=1))
    assert matching_to_csv(inst, school_proposing_da(inst)) == MATCHING_CSV


def test_sweep_csv_golden(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "6", "--k-list", "1,2", "--deltas", "0,1", "--reps", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    assert out.read_text() == SWEEP_CSV
    assert (tmp_path / "sweep.csv.summary.csv").read_text() == SWEEP_SUMMARY_CSV


def test_stable_partners_csv_golden(tmp_path, capsys):
    out = tmp_path / "verdicts.csv"
    assert main(["stable-partners", "--n", "6", "--k", "3", "--seed", "31", "--reps", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == VERDICTS_CSV
    assert (tmp_path / "verdicts.csv.summary.csv").read_text() == VERDICTS_SUMMARY_CSV


def test_compare_golden(tmp_path, capsys):
    out = tmp_path / "diffs.csv"
    assert main(["compare", "--n", "6", "--k", "3", "--seed", "2", "--reps", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == COMPARE_CSV
    assert capsys.readouterr().out == COMPARE_STDOUT
