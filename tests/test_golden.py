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
    match_rank_indices,
    sample_market,
    school_proposing_da,
    solve_general,
    solve_iid,
    student_proposing_da,
)
from admitsim.cli import main

SIMULATE_CSV = (
    "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university\n"
    "2,0,7434755675892716031,3,3,1,3,0,3,0,0,3,3\n"
    "2,0,77803131892610477,3,3,1,3,3,0,0,3,6,6\n"
)

INSTANCE_PREFS = [[1, 2], [2, 0], [0, 1]]

# the signal table row by row, each value as its repr, so every bit is pinned
INSTANCE_SIGNALS = [
    "-0.7364540870016669", "-0.16290994799305278",
    "-0.48211931267997826", "0.5988462126346276",
    "0.03972210748165899", "-0.2924567509650886",
]

# each student's partner, and its rank (from 1) on the student's list
MATCHING_PARTNERS = [2, 0, 1]
MATCHING_RANKS = [2, 2, 2]

SWEEP_CSV = (
    "k,delta,seed,n,m,l,matched,rank1,rank2,unmatched,synergy,u_student,u_university\n"
    "1,0,12467808127879573787,6,6,1,3,3,0,3,3,6,6\n"
    "1,0,11425928242767342472,6,6,1,4,4,0,2,4,8,8\n"
    "2,0,11475712343069784169,6,6,1,5,5,0,1,5,10,10\n"
    "2,0,12505594170494392219,6,6,1,5,2,3,1,2,7,7\n"
    "1,1,16284573993945758692,6,6,1,4,4,0,2,4,8,8\n"
    "1,1,9791734468858838757,6,6,1,2,2,0,4,2,4,4\n"
    "2,1,18115008548422440114,6,6,1,4,2,2,2,2,6,6\n"
    "2,1,9565533078676835473,6,6,1,5,5,0,1,5,10,10\n"
)

SWEEP_SUMMARY_CSV = (
    "k,delta,reps,mean_matched,se_matched,mean_rank1,se_rank1,mean_synergy,se_synergy,"
    "mean_u_student,se_u_student,mean_u_university,se_u_university\n"
    "1,0,2,3.5,0.5,3.5,0.5,3.5,0.5,7,1,7,1\n"
    "2,0,2,5,0,3.5,1.5,3.5,1.5,8.5,1.5,8.5,1.5\n"
    "1,1,2,3,1,3,1,3,1,6,2,6,2\n"
    "2,1,2,4.5,0.5,3.5,1.5,3.5,1.5,8,2,8,2\n"
)

VERDICTS_CSV = "rep,seed,university,verdict,witness\n" + "".join(
    f"{rep},{seed},{u},{verdict}\n"
    for rep, seed, verdicts in (
        (0, 11917523879341755967, ("NO,NULL",) * 6),
        (1, 1713842872717758196, ("NO,NULL",) * 6),
        (2, 10735656317102617875, ("NO,NULL",) * 6),
    )
    for u, verdict in enumerate(verdicts)
)

VERDICTS_SUMMARY_CSV = (
    "rep,seed,yes_fraction\n"
    "0,11917523879341755967,0\n"
    "1,1713842872717758196,0\n"
    "2,10735656317102617875,0\n"
)

COMPARE_CSV = (
    "rep,seed,diff_fraction\n"
    "0,10128210881749538955,0\n"
    "1,6609312287773032911,0\n"
    "2,15752139279244931036,0\n"
)

COMPARE_STDOUT = '{"replications": 3, "mean_difference": 0.0}\n'

# n = 6, k = 2, root seed 10: replication 1 has two stable matchings, which
# swap students 2 and 5 between universities 0 and 3
VERDICTS_YES_CSV = "rep,seed,university,verdict,witness\n" + "".join(
    f"{rep},{seed},{u},{verdict}\n"
    for rep, seed, verdicts in (
        (0, 11122205338535051451, ("NO,NULL",) * 6),
        (1, 29578199050221545, ("YES,5", "NO,NULL", "NO,NULL", "YES,2", "NO,NULL", "NO,NULL")),
        (2, 5589107352368182458, ("NO,NULL",) * 6),
    )
    for u, verdict in enumerate(verdicts)
)

VERDICTS_YES_SUMMARY_CSV = (
    "rep,seed,yes_fraction\n"
    "0,11122205338535051451,0\n"
    "1,29578199050221545,0.333333\n"
    "2,5589107352368182458,0\n"
)

COMPARE_DIFF_CSV = (
    "rep,seed,diff_fraction\n"
    "0,11122205338535051451,0\n"
    "1,29578199050221545,0.333333\n"
    "2,5589107352368182458,0\n"
)

COMPARE_DIFF_STDOUT = '{"replications": 3, "mean_difference": 0.1111111111111111}\n'


def test_simulate_csv_golden(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["simulate", "--n", "3", "--k", "2", "--seed", "1", "--reps", "2",
                 "--out", str(out)]) == 0
    assert out.read_text() == SIMULATE_CSV


def test_instance_golden():
    inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=1))
    assert inst.prefs.tolist() == INSTANCE_PREFS
    assert [repr(v) for v in inst.signals.ravel().tolist()] == INSTANCE_SIGNALS


def test_matching_golden():
    inst = sample_market(MarketConfig(n=3, m_ratio=1.0, k=2, seed=1))
    matching = school_proposing_da(inst)
    assert matching.partner.tolist() == MATCHING_PARTNERS
    assert (match_rank_indices(inst, matching) + 1).tolist() == MATCHING_RANKS


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


def test_stable_partners_yes_golden(tmp_path, capsys):
    out = tmp_path / "verdicts.csv"
    assert main(["stable-partners", "--n", "6", "--k", "2", "--seed", "10", "--reps", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == VERDICTS_YES_CSV
    assert (tmp_path / "verdicts.csv.summary.csv").read_text() == VERDICTS_YES_SUMMARY_CSV


def test_compare_difference_golden(tmp_path, capsys):
    out = tmp_path / "diffs.csv"
    assert main(["compare", "--n", "6", "--k", "2", "--seed", "10", "--reps", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == COMPARE_DIFF_CSV
    assert capsys.readouterr().out == COMPARE_DIFF_STDOUT


# sha256 of the little-endian int64 / float64 bytes of each table, for the
# n = 10^5 markets of the large benchmark item (seed 1): the list kernel,
# the ranking's tie repair and the completion's holes all run at this scale.
LARGE_DIGESTS = {
    "prefs": "70d142eda8ad84d0138faf339072dd0f3424042e9931c4c1e62abf82cbcd8431",
    "signals": "470c7c6e68617910e9306cc913fc8e3b0b01038ccd25f99b72d4c7efa5d4ce8c",
    "tiebreaks": "818f3ec3a904d47b143fcc64d58d138e079bb19c5e8d9d12e26871fdaa67825a",
    "uni_rank": "5acf45e4a2b21e6edefe57345a4f0cc5a169ed4017f208e167d5a6cad6f3b19e",
    "_uni_order": "6c70031fe1f29b6912d897814adea333ee6355b45de14426e60574cdc8ba2753",
    "school": "c55f64e089b35704c2950604ff32c0bd5fb0a030e1cbbed323aa53c294412095",
    "student": "cd49d086b4037ec6fddda13fdf999175f87888fef686ac22ca3222041b4c5d76",
    "seeded prefs": "fc6f442051db005c23c292c93e94aaa87b0edc357af20547fcfb5f9684cc6d01",
    "seeded signals": "adc9572d0686d1c2d6b61b078550496f8c0b9e790fc89b4be75545972f846121",
    "seeded tiebreaks": "7f10e7ea09cf9cb3fd785ed3f5216588c55e627b326f1f560ef4e0e7e0b24a9b",
    "seeded uni_rank": "f54d3a508395135d17afd4f31510d3dda0bfab235f8224875f03d621989f9c8c",
    "seeded repair": "8c6f5b02dde893df15360d715e4360a1a63f379ea9609461f5726d1162cf0a3f",
}


def _digest(table: np.ndarray) -> str:
    kind = "<f8" if np.issubdtype(table.dtype, np.floating) else "<i8"
    return hashlib.sha256(np.ascontiguousarray(table, dtype=kind).tobytes()).hexdigest()


def _table_digests(instance, names, prefix: str = "") -> dict[str, str]:
    """Digests of the instance's tables by name; "uni_rank" is the (n, k) table of
    each application's rank at its university, its place less the university's offset."""
    tables = {"uni_rank": instance._uni_place.reshape(instance.prefs.shape)
              - instance._uni_offsets[instance.prefs]}
    return {prefix + name: _digest(tables[name] if name in tables else getattr(instance, name))
            for name in names}


def test_large_market_digests():
    inst = sample_market(
        MarketConfig(n=100_000, m_ratio=1.0, k=5, signal=SignalSpec.gaussian(1.0), seed=1)
    )
    got = _table_digests(inst, ("prefs", "signals", "tiebreaks", "uni_rank", "_uni_order"))
    got["school"] = _digest(school_proposing_da(inst).partner)
    got["student"] = _digest(student_proposing_da(inst).partner)
    config = MarketConfig(n=100_000, m_ratio=0.5, capacity=2, k=5, seed=1)
    plan = build_seeded_plan(solve_iid(config).rank_fractions.fractions, config)
    seeded = complete_instance(plan)
    got |= _table_digests(seeded, ("prefs", "signals", "tiebreaks", "uni_rank"), "seeded ")
    got["seeded repair"] = _digest(continue_rejection_chains(seeded, plan).partner)
    assert got == LARGE_DIGESTS


# sha256 of every file that the three commands of one cli_small benchmark
# item write, at root seed 1: the sweep's records and means, the
# stable-partner verdicts and fractions, and the solver's JSON.
CLI_SMALL_DIGESTS = {
    "solve.json": "571ab0d1e6e521903b45d32054e645a6732e525f728aaedfa8e1e0a2a1d470b6",
    "sweep.csv": "e855f763685ca463b55ec3c7221e5573174d2a7bb77c4e450003ba6c9830a1ec",
    "sweep.csv.summary.csv": "fdc4b8fbf4b03581f31b05495b96a5715e6520b9458e147d6c1d53207937ac06",
    "verdicts.csv": "bea89a3a76bf51d5da87f550c7bb4e1873849b368d0cf496da10bf5de475d6c2",
    "verdicts.csv.summary.csv": "9f969e518a276ac4a49810e06308f5e1e7c913fa7c494023a60752ced4b9a97e",
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
# number of signals it draws, the special one first, after the list
# uniforms and the tiebreaks.
CUSTOM_DIGESTS = {
    "prefs": "1ca200686560f9c27e52b06f8fda2177f607e6e52a1bf423b218e9fd08ec5c5e",
    "signals": "4c5dcc9e649ac333357a7321501a61444df470ea3471bdd1973cb5f8ae053c7b",
    "tiebreaks": "2fbffc50ce5bdbab2abf51aa92401b09395cbe306ab21a2b15488ecb1a659ed7",
    "uni_rank": "22ac662e6ea5f83b4ab5f5c479f91533a4efdeec4b737af3860e0d5638c9a9a8",
}
CUSTOM_SOLVE = (1.0, 0.4376941308320187, 0.28024598842141835)


def test_custom_sampler_digests():
    signal = SignalSpec.custom(lambda rng, size: 1.0 + rng.standard_normal(size),
                               lambda rng, size: rng.standard_normal(size))
    config = MarketConfig(n=50, m_ratio=1.0, k=3, signal=signal, seed=5)
    inst = sample_market(config)
    got = _table_digests(inst, CUSTOM_DIGESTS)
    assert got == CUSTOM_DIGESTS
    result = solve_general(config)
    assert (result.method, result.rank_fractions.fractions) == ("sampled-bisection", CUSTOM_SOLVE)
