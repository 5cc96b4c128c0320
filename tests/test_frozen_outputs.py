"""Frozen CLI outputs: git-blob hashes of fixed-seed runs.

Each case runs one subcommand in-process with ``--out`` and compares the
git-blob hash of the output file with the hash recorded when the case was
added. A change that keeps behaviour leaves every hash as it is; a change
that means to alter an output updates its hash here and says why.
"""

import hashlib

from ergodic.cli import main

SEED_A = "00112233445566778899aabbccddeeff"
SEED_B = "0123456789abcdef0123456789abcdef"
SCHEME = (
    "(forall x (forall y (or (not (schemeAnd n 3 (or (and (rel (P n) x) (rel (P n) y))"
    " (and (not (rel (P n) x)) (not (rel (P n) y)))))) (eq x y))))"
)
# a disjunctive scheme around an existential and a nested scheme that rebinds
# its index variable; the second sentence is an alpha-variant of the first
MIXED = [
    "(forall x (schemeOr n 2 (and (rel (P n) x)"
    " (exists y (schemeAnd n 2 (or (rel (P n) y) (not (eq x y))))))))",
    "(forall z (schemeOr m 2 (and (rel (P m) z)"
    " (exists w (schemeAnd m 2 (or (rel (P m) w) (not (eq z w))))))))",
]

# (output file, argv, exit code, git-blob hash of the output), run in order:
# the later cases read the build manifest the first one writes.
CASES = [
    ("build_a.json", ["build-limit", "--stages", "8", "--seed", SEED_A], 0,
     "ecb6edb92daf7663c8210e734d0371b366874f90"),
    ("build_b.json", ["build-limit", "--stages", "8", "--seed", SEED_B], 0,
     "4c372c8335b82e64ae4ba914dd43db6b91f507ab"),
    # the base depth moves tail_start and every symbol name after the base
    ("build_d2.json", ["build-limit", "--stages", "8", "--base-depth", "2", "--seed", SEED_A], 0,
     "0e51763e5ea3ce9ca3be982fbe383c170e2063dc"),
    ("build_d6.json", ["build-limit", "--stages", "8", "--base-depth", "6", "--seed", SEED_A], 0,
     "3978913a6ce58406e349e759238bc29bca79ec8f"),
    ("snapshot_d6.jsonl", ["limit-sample", "--manifest", "build_d6.json", "-n", "12",
                           "--depth", "10", "--seed", SEED_B], 0,
     "3e21be50f1519c1afab6bfe20cec588fb129531f"),
    ("morley_qe.json", ["morleyize", "--base", "R/2",
                        "--sentence", "(forall x (exists y (rel R x y)))"], 0,
     "2baa4b24925fbd7afb831a080a9e00e1f24a3b9a"),
    ("morley_scheme.json", ["morleyize", "--base", "P0/1,P1/1,P2/1", "--sentence", SCHEME], 0,
     "0c775b49eab4fad8533b9f6e3be167fde9799751"),
    ("morley_mixed.json", ["morleyize", "--base", "P0/1,P1/1", "--sentence", MIXED[0],
                           "--sentence", MIXED[1]], 0,
     "91e5eb2a4e559d80aec945020e5e9e08c991e3ec"),
    ("snapshot.jsonl", ["limit-sample", "--manifest", "build_a.json", "-n", "12",
                        "--depth", "10", "--seed", SEED_B], 0,
     "fa2a3137f31a7b80187256946fe4e4d556bd04c1"),
    ("rescale.jsonl", ["rescale", "--manifest", "build_a.json", "--preset", "p0-heavy",
                       "--trials", "2000", "--seed", SEED_A], 0,
     "041a84e39ffd80dbc5e9253ad83e8a15a6c44926"),
    # the weight below the build's depth: paths split evenly past the weight's stage
    ("rescale_stage5_light.jsonl", ["rescale", "--manifest", "build_a.json", "--stage", "5",
                                    "--preset", "p0-light", "--trials", "2000",
                                    "--seed", SEED_B], 0,
     "e8ddac77a98654b067c4d51e7934099419bb192b"),
    ("rescale_stage5_identity.jsonl", ["rescale", "--manifest", "build_a.json", "--stage", "5",
                                       "--preset", "identity", "--trials", "2000",
                                       "--seed", SEED_A], 0,
     "aba744a877bc7f27f779bd9d82c264fef253f1b1"),
    ("sample.jsonl", ["sample", "--sampler", "kaleidoscope:k=2,d=3", "-n", "8",
                      "--seed", SEED_A], 0,
     "202a946ac17058fe5f550c76480042189a11b4a7"),
    ("sample_maxgraph.jsonl", ["sample", "--sampler", "maxgraph:d=4", "-n", "8",
                               "--seed", SEED_A], 0,
     "4307b76ec97689a80df3e88a0af72919f02831ba"),
    ("sample_geometric.jsonl", ["sample", "--sampler", "geometric:dim=2,norm=sup,p=0.5",
                                "-n", "8", "--seed", SEED_A], 0,
     "c7a7aa048cd974b7a1515c1adf850ce5af7e53f2"),
    ("sample_digraph.jsonl", ["sample", "--sampler", "digraph:d=3", "-n", "8",
                              "--seed", SEED_A], 0,
     "53273f90ff7c6d0042e4e6755b76e184668fb9e4"),
    ("sample_bipartite.jsonl", ["sample", "--sampler", "bipartite:i=2,j=2", "-n", "8",
                                "--seed", SEED_A], 0,
     "e2a1bde21239256b67fcacf39b81e3d6af8fd6dd"),
    ("sample_mixture.jsonl", ["sample", "--sampler", "mixture:p1=0.1,p2=0.9", "-n", "8",
                              "--seed", SEED_A], 0,
     "b8f8ee0882bf65d641de0e2b09efe9b47d847f29"),
    ("sample_ternary.jsonl", ["sample", "--sampler", "kaleidoscope:k=3,d=8", "-n", "12",
                              "--seed", SEED_A], 0,
     "d5593df800426692c9a098214d8ec16bfb4e0be2"),
    ("sample_maxgraph.csv", ["sample", "--sampler", "maxgraph:d=4", "-n", "8",
                             "--seed", SEED_A, "--format", "csv"], 0,
     "0cdca39cff6447c48245b6bc94bca3e95074c00e"),
    # with only 16 prefixes some pair type is unrooted, so roots exits 2
    ("roots_maxgraph.jsonl", ["roots", "--sampler", "maxgraph:d=4", "-n", "8",
                              "--seed", SEED_A], 2,
     "a4c3482e91e7c74b3ffea689f0bff92b0a21c8e4"),
    # the Monte Carlo estimators, one case each; the mixture's dissociation gap is flagged
    ("estimate.jsonl", ["estimate", "--sampler", "maxgraph:d=4", "--phi",
                        "(and (rel R0 x0 x1) (not (rel R3 x0 x1)))", "--trials", "3000",
                        "--seed", SEED_A], 0,
     "0272bfdc643d652a7c08ee6c1502669c14a4a482"),
    ("dissoc_kaleidoscope.jsonl", ["dissoc", "--sampler", "kaleidoscope:k=2,d=3", "--phi",
                                   "(rel R0 x0 x1)", "--psi", "(or (rel R1 x0 x1) (eq x0 x1))",
                                   "--trials", "3000", "--seed", SEED_A], 0,
     "b8d1a24dc99a4a2fd02e4a9ec0abfc066a26321e"),
    ("dissoc_mixture.jsonl", ["dissoc", "--sampler", "mixture:p1=0.1,p2=0.9", "--phi",
                              "(rel R0 x0 x1)", "--psi", "(rel R0 x0 x1)", "--trials", "3000",
                              "--seed", SEED_B], 1,
     "053bc70d0c20480b8c4608ad98acc2717a1ecf9b"),
    ("invariance.jsonl", ["invariance", "--sampler", "digraph:d=3", "--phi",
                          "(and (rel R x0 x1) (not (rel R x1 x2)))", "--sigma", "2 0 1",
                          "--trials", "3000", "--seed", SEED_A], 0,
     "afcdd152c597cb57ef7a9f20879afff827db1958"),
    ("coherence.jsonl", ["coherence", "--sampler", "bipartite:i=2,j=2", "-n", "5", "-m", "3",
                         "--trials", "100", "--seed", SEED_A], 0,
     "d308c59075f5c5a961f6b4ec03cfa8ea0cf8ca28"),
    ("collide.jsonl", ["collide", "--sampler", "kaleidoscope:k=2,d=2", "-n", "2",
                       "--expect", "0.25", "--trials", "3000", "--seed", SEED_A], 0,
     "e8d3f3cc994f9272369336a1131ba98d59f05090"),
    ("postypes.jsonl", ["postypes", "--sampler", "blowup:d=3", "--arity", "1",
                        "--epsilon", "0.05", "--trials", "3000", "--seed", SEED_B], 0,
     "ae6027453610445d7384e7ee4347e39784803d00"),
    # CSV columns follow each row's key order: a gap or deviation row adds z last
    ("dissoc_kaleidoscope.csv", ["dissoc", "--sampler", "kaleidoscope:k=2,d=3", "--phi",
                                 "(rel R0 x0 x1)", "--psi", "(or (rel R1 x0 x1) (eq x0 x1))",
                                 "--trials", "3000", "--seed", SEED_A, "--format", "csv"], 0,
     "0a282bd3cad9456581abc393064853762b02cd16"),
    ("invariance.csv", ["invariance", "--sampler", "digraph:d=3", "--phi",
                        "(and (rel R x0 x1) (not (rel R x1 x2)))", "--sigma", "2 0 1",
                        "--trials", "3000", "--seed", SEED_A, "--format", "csv"], 0,
     "e473dfb6dc0fae053c9200ac707bc47a667d12e0"),
    ("collide.csv", ["collide", "--sampler", "kaleidoscope:k=2,d=2", "-n", "2", "--expect",
                     "0.25", "--trials", "3000", "--seed", SEED_A, "--format", "csv"], 0,
     "7b384cbb27e8fd6e8cde875009042b98d4639cb7"),
    ("rescale.csv", ["rescale", "--manifest", "build_a.json", "--preset", "p0-heavy",
                     "--trials", "2000", "--seed", SEED_A, "--format", "csv"], 0,
     "5c4b8a9da350c5c47b14ef8a861e9dcfd3710952"),
    # n = 30, the size of the benchmark's wide structures: a 3.7 MB fact list
    ("sample_ternary_30.jsonl", ["sample", "--sampler", "kaleidoscope:k=3,d=8", "-n", "30",
                                 "--seed", SEED_A], 0,
     "4335a454b19717d4842fb530d49d9eba0873c292"),
    ("roots_maxgraph_30.jsonl", ["roots", "--sampler", "maxgraph:d=16", "-n", "30",
                                 "--seed", SEED_A], 0,
     "137aa2df9e0a048fc9edab78b692965741bcea9e"),
    ("roots_maxgraph_30.csv", ["roots", "--sampler", "maxgraph:d=16", "-n", "30",
                               "--seed", SEED_A, "--format", "csv"], 0,
     "fba547f63e401429b93c2eefcaa4cd4b9acec5cb"),
    # chi reads R2, outside the fingerprint sublanguage
    ("roots_k2_sub.jsonl", ["roots", "--sampler", "kaleidoscope:k=2,d=8", "-n", "30",
                            "--sub", "0 1", "--chi", "(and (rel R2 x0 x1) (not (eq x0 x1)))",
                            "--seed", SEED_A], 2,
     "ae92dc444bf99469c098cc8b311995cef3c7e625"),
]


def git_blob(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def test_cli_outputs_are_frozen(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv, _, _ in CASES:
        code = main([*argv, "--out", name])
        got[name] = (code, git_blob((tmp_path / name).read_bytes()))
    assert got == {name: (code, blob) for name, _, code, blob in CASES}

