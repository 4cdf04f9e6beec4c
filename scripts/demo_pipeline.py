#!/usr/bin/env python3
"""Walk the four protocol phases end to end on a random accepting
circuit and print what happens at each step, including a late-stamp
counterexample that the verifier rejects.
"""

import argparse

from pvqc import compiler, dvproof, qsim
from pvqc.compiler import CostModel
from pvqc.meter import MeteredClock
from pvqc.timestamp import Ledger, new_mac_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    circuit = qsim.random_accepting_circuit(args.qubits, args.depth, args.seed)
    x = [0] * args.qubits
    cost = CostModel.from_circuit(circuit)
    print(f"statement: {args.qubits} qubits, depth {args.depth}, "
          f"t_units={cost.t_units}, delta={cost.delta()}")

    crs, token = compiler.vc_setup(256, circuit, x, cost)
    print(f"setup:     puzzle sealed, mu={crs.tpk.mu}")

    ledger = Ledger(new_mac_key())
    clock = MeteredClock()
    pi_tau = compiler.vc_prove(crs, circuit, x, token, ledger, clock, cost)
    print(f"prove:     stamped at tau={pi_tau.tau} (deadline {crs.delta})")

    opening = compiler.vc_reveal(crs, clock)
    print(f"reveal:    solved after {crs.tpk.mu} sequential steps, "
          f"clock now {clock.now}")

    verdict, site = compiler.vc_verify_explain(crs, circuit, x, pi_tau,
                                               opening, ledger)
    print(f"verify:    {'accept' if verdict else f'reject ({site})'}")

    # Counterexample: forging with the revealed key after the deadline.
    forged = dvproof.forge_proof(
        dvproof.DvSecretKey(mac_key=opening.sk_bytes), crs.pk, 1)
    late = compiler.stamp_proof(forged, ledger, clock)
    verdict, site = compiler.vc_verify_explain(crs, circuit, x, late,
                                               opening, ledger)
    print(f"late forge: tau={late.tau} -> "
          f"{'accept' if verdict else f'reject ({site})'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
