"""Kernel scratch memory on states at the qubit cap, against their tile bounds.

    python .github/scripts/kernel_memory.py

One gate of each kind on the 128 MB float64 state `new_zero_state` gives,
then on a 256 MB complex128 state: per walker, its scratch stays within
one tile of the state's dtype (MCX copies one tile; two for H, whose
in-place add numpy copies through, and none for MCZ, which negates its
hit states in place), and a pass has `statevector._WALKERS` walkers, the
calling thread and a helper thread, each on half of its tiles, as
tests/test_statevector.py checks on states of several tiles. An X costs
no pass until the end of the call; then one pass, which copies one tile
per walker, covers every pending qubit inside a tile, and one covers each
pending qubit above a tile. X runs alone at both ends of the register,
at strides 2^23 and 1, and as five X's left pending, two above a tile and
three inside one, all within one tile per walker. Then a gate list,
within two tiles per walker. How numpy buffers an in-place ufunc on a
strided view depends on its version, so this runs on every numpy the
workflow tests. Exits non-zero naming the first dtype and gate list over
its bound.
"""

import sys
import tracemalloc

import numpy as np

from qperc import statevector as sv

n = sv.MAX_QUBITS
run = [sv.h(n - 1), sv.x(n - 2), sv.h(n - 3), sv.mcz([0, n - 1]), sv.mcx([1, 2], n - 1)]
cases = [
    (op,) for op in (sv.h(n - 4), sv.x(0), sv.x(n - 1), sv.mcz([0]), sv.mcx([0], n - 1))
]
pending = [sv.x(0), sv.x(3), sv.x(n - 1), sv.x(n - 5), sv.x(n - 9)]


def check(amps):
    tile = sv._TILE * amps.itemsize
    for ops in cases + [pending, run]:
        tracemalloc.start()
        sv._apply_inplace(amps, n, ops)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        kinds = {op.kind for op in ops}
        tiles = 2 if "H" in kinds else 0 if kinds == {"MCZ"} else 1
        bound = sv._WALKERS * (tiles * tile + 2**14)
        name = f"{amps.dtype} {ops}"
        print(f"{name}: peak {peak} bytes, bound {bound}, state {amps.nbytes}")
        if peak > bound:
            sys.exit(f"{name}: scratch peak {peak} bytes is over its bound {bound}")


real = sv.new_zero_state(n).amplitudes
if real.nbytes != 2**27:
    sys.exit(f"new_zero_state({n}) holds {real.nbytes} bytes, not float64's 2**27")
check(real)
del real
amps = np.zeros(1 << n, dtype=np.complex128)
amps[0] = 1.0
check(amps)
