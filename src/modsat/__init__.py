"""modsat: modular-logic truth tables, an LP relaxation pipeline for k-SAT,
exact oracles, and a differential harness that measures the gap between the
pipeline's claims and ground truth."""

__version__ = "0.1.0"
