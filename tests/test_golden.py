"""Golden outputs pinning the seeded streams and the CLI's output formats.

If one of these fails after an intentional change to an output format or
to the random stream layout, regenerate the constants and note the break
in the changelog; they exist to make silent drift loud.
"""

from __future__ import annotations

import hashlib

import numpy as np

from admitsim import (
    MarketConfig,
    SignalSpec,
    build_seeded_plan,
    complete_instance,
    continue_rejection_chains,
    matching_to_csv,
    sample_market,
    school_proposing_da,
    solve_general,
    solve_iid,
    student_proposing_da,
)
from admitsim.cli import main

SIMULATE_CSV = (
    "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university\n"
    "2,0,7434755675892716031,3,3,1,3,1,2,0,1,4,4\n"
    "2,0,77803131892610477,3,3,1,3,2,1,0,2,5,5\n"
)

INSTANCE_PREFS = [[0, 2], [0, 1], [2, 1]]

# the signal table row by row, each value as its repr, so every bit is pinned
INSTANCE_SIGNALS = [
    "0.36457239618607573", "0.294132496655526",
    "0.02842224131579679", "0.5467129866124469",
    "-0.7364540870016669", "-0.16290994799305278",
]

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


def test_instance_golden():
    inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=1))
    assert inst.prefs.tolist() == INSTANCE_PREFS
    assert [repr(v) for v in inst.signals.ravel().tolist()] == INSTANCE_SIGNALS


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


# sha256 of the little-endian int64 / float64 bytes of each table, for the
# n = 10^5 markets of the large benchmark item (seed 1): rejection rounds,
# the ranking's tie repair and the completion's holes all run at this scale.
LARGE_DIGESTS = {
    "prefs": "f7238f9c74e572d286b449d305c49eaf6c59d63f574be47fedfd8bca661dca32",
    "signals": "4314b9456cf91f9244c4fc9515907f61f7cfadabb330d7af16dc8d6300c5004b",
    "tiebreaks": "7f38e2087e1ef75de276617ddc0aeb0bd85ec8bc1bdc7ee4fc43e1ac49d9cade",
    "uni_rank": "98eef1c6ba8317edc95e58b314b3a91f5fe63a32e35570a7359fd88661beb92f",
    "_uni_order": "90f644347fa1d4abab0e1f307342b75731e922a85825eefa65da6a077cc5c354",
    "school": "d259ead35dd1fa3fd8a6a731faf5a68d35da0062247a88d05c3c69bf078d6348",
    "student": "d259ead35dd1fa3fd8a6a731faf5a68d35da0062247a88d05c3c69bf078d6348",
    "seeded prefs": "c29136f8e73c4e9e5b531067ab3c1364e2538154c3587b0e895ec61dd309432e",
    "seeded signals": "368c2779c2ead12adfee3f80b5a20c8ef145be0cd148e40771e3ba15c25619b0",
    "seeded tiebreaks": "7423d519ef290143f0847f9f800a896cbc39b9710bd769687d0b576f831e05ab",
    "seeded uni_rank": "34e58675a4d71051e14e04c0462d7c3e8b37a31950f01896902871460f4dca87",
    "seeded repair": "59ba9f0d0ef38bac7dc48612d71d0b374f26677ab82bf7e2d76d418343ef456d",
}


def _digest(table: np.ndarray) -> str:
    kind = "<f8" if np.issubdtype(table.dtype, np.floating) else "<i8"
    return hashlib.sha256(np.ascontiguousarray(table, dtype=kind).tobytes()).hexdigest()


def test_large_market_digests():
    inst = sample_market(
        MarketConfig(n=100_000, m_ratio=1.0, k=5, signal=SignalSpec.gaussian(1.0), seed=1)
    )
    got = {name: _digest(getattr(inst, name))
           for name in ("prefs", "signals", "tiebreaks", "uni_rank", "_uni_order")}
    got["school"] = _digest(school_proposing_da(inst).partner)
    got["student"] = _digest(student_proposing_da(inst).partner)
    config = MarketConfig(n=100_000, m_ratio=0.5, capacity=2, k=5, seed=1)
    plan = build_seeded_plan(solve_iid(config).rank_fractions.fractions, config)
    seeded = complete_instance(plan)
    for name in ("prefs", "signals", "tiebreaks", "uni_rank"):
        got[f"seeded {name}"] = _digest(getattr(seeded, name))
    got["seeded repair"] = _digest(continue_rejection_chains(seeded, plan).partner)
    assert got == LARGE_DIGESTS


# sha256 of every file that the three commands of one cli_small benchmark
# item write, at root seed 1: the sweep's records and means, the
# stable-partner verdicts and fractions, and the solver's JSON.
CLI_SMALL_DIGESTS = {
    "solve.json": "571ab0d1e6e521903b45d32054e645a6732e525f728aaedfa8e1e0a2a1d470b6",
    "sweep.csv": "03039125e196f60673df1ed86c0237484a1c09b558bfd2660ff6d7dc74f98ad6",
    "sweep.csv.summary.csv": "ee8773130dc5c3dc184940e118a0d1ba8f52b1ad794936cbc70aa0aba5f1ff77",
    "verdicts.csv": "2b584dd4d83302f60e6e699275c97fe7365019e87a7e781fcc8df0a9f70bd99e",
    "verdicts.csv.summary.csv": "304c1a27907863762a37e37aac32698b53e39c928821437ff1c9606c0c582edf",
}


def test_cli_small_digests(tmp_path):
    seed = ["--seed", "1"]
    assert main(["sweep", "--n", "100", "--k-min", "1", "--k-max", "10", "--deltas", "0,1,2",
                 "--reps", "50", *seed, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(["stable-partners", "--n", "2000", "--k", "5", "--reps", "20", *seed,
                 "--out", str(tmp_path / "verdicts.csv")]) == 0
    assert main(["solve", "--n", "100", "--k", "5", "--delta", "2.0", "--m-ratio", "1.0",
                 "--capacity", "1", "--method", "general", "--n-sim", "40000", "--trials", "8",
                 *seed, "--out", str(tmp_path / "solve.json")]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    assert got == CLI_SMALL_DIGESTS


# The custom-sampler stream: each sampler is called once per kind with the
# number of signals it draws, the special one first.
CUSTOM_DIGESTS = {
    "prefs": "2ed67b45a8ccf0f4141a5e5a77eec1e85b52b9371eb135aac7b5593948e369eb",
    "signals": "0f20cc028e53b34da5400c599df039396b7c074c0055d8fe5001fc04b8f544d6",
    "tiebreaks": "e8fe7acf257fea3f3160440856ef734b67db78ea9d1a8f8f71b71be74f08bd51",
    "uni_rank": "8fc32379851146bc48764e74ac1133fe92e135543f58e1ba3908740cf58db528",
}
CUSTOM_SOLVE = (1.0, 0.4376941308320187, 0.28024598842141835)


def test_custom_sampler_digests():
    signal = SignalSpec.custom(lambda rng, size: 1.0 + rng.standard_normal(size),
                               lambda rng, size: rng.standard_normal(size))
    config = MarketConfig(n=50, m_ratio=1.0, k=3, signal=signal, seed=5)
    inst = sample_market(config)
    got = {name: _digest(getattr(inst, name)) for name in CUSTOM_DIGESTS}
    assert got == CUSTOM_DIGESTS
    result = solve_general(config)
    assert (result.method, result.rank_fractions.fractions) == ("sampled-bisection", CUSTOM_SOLVE)
