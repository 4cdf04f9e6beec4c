"""Time-delayed publicly verifiable delegation of (simulated) quantum
computation: time-lock puzzles, commitments, a timestamp ledger, a
designated-verifier proof backend, and the compiler gluing them together.
"""

from . import commit, compiler, dvproof, qsim, timestamp, tlp
