"""The standard output of every demo, pinned by its SHA-256.  The demos
print exact results, so a digest that moves means the library computes
something else; a new demo needs its digest recorded here."""

import hashlib
import os
import subprocess
import sys

import pytest

import chainops

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")

DIGESTS = {
    "01_symbols_and_complexity.py":
        "9c03f69b6d6bfcf02bbc04d556e7ecdd66d740e095508fa6a41c56185bc892f7",
    "02_conormalization.py":
        "b137eb5ada46a51e8b0e7b8551a52d9105317688f4bbe913980c85cd6ed752a6",
    "03_operads_T_and_Tn.py":
        "027782f689ffa9d202c1c6822800d538d0dfa73e76a862725b7345ee91212349",
    "04_cochain_calculus.py":
        "3b1eb27ec32156cf991a906f986f2b8ae4507dd27fc9c22e04906eff60b30fe4",
    "05_hochschild.py":
        "0d73176e2771af82e965487fd15bbbb5732b0868978bec8cac5214e540994b03",
    "06_little_cubes.py":
        "8c8eefeec1de1e2312bbf1a4ff2e6432ecb6f927f2004dd410a98c56be50cf17",
}


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS)
                                        if n.endswith(".py")))
def test_demo_output_pinned(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainops.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS.get(name), name
