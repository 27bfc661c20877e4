"""Profile-guided chunk autotuning for the process pool.

The only module here is :mod:`repro.backend.autotune`, which learns the
design-batch chunk size :class:`~repro.core.parallel.BatchDssocEvaluator`
ships to each pool worker from timed calls on this machine.
"""
