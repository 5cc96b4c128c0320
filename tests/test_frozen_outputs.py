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

# (output file, argv, exit code, git-blob hash of the output), run in order:
# the later cases read the build manifest the first one writes.
CASES = [
    ("build_a.json", ["build-limit", "--stages", "8", "--seed", SEED_A], 0,
     "ecb6edb92daf7663c8210e734d0371b366874f90"),
    ("build_b.json", ["build-limit", "--stages", "8", "--seed", SEED_B], 0,
     "4c372c8335b82e64ae4ba914dd43db6b91f507ab"),
    ("morley_qe.json", ["morleyize", "--base", "R/2",
                        "--sentence", "(forall x (exists y (rel R x y)))"], 0,
     "2baa4b24925fbd7afb831a080a9e00e1f24a3b9a"),
    ("morley_scheme.json", ["morleyize", "--base", "P0/1,P1/1,P2/1", "--sentence", SCHEME], 0,
     "0c775b49eab4fad8533b9f6e3be167fde9799751"),
    ("snapshot.jsonl", ["limit-sample", "--manifest", "build_a.json", "-n", "12",
                        "--depth", "10", "--seed", SEED_B], 0,
     "fa2a3137f31a7b80187256946fe4e4d556bd04c1"),
    ("rescale.jsonl", ["rescale", "--manifest", "build_a.json", "--preset", "p0-heavy",
                       "--trials", "2000", "--seed", SEED_A], 0,
     "041a84e39ffd80dbc5e9253ad83e8a15a6c44926"),
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
    # with only 16 prefixes some pair type is unrooted, so roots exits 2
    ("roots_maxgraph.jsonl", ["roots", "--sampler", "maxgraph:d=4", "-n", "8",
                              "--seed", SEED_A], 2,
     "a4c3482e91e7c74b3ffea689f0bff92b0a21c8e4"),
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

