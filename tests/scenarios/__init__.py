"""Tests for the scenario control plane (specs, seeds, run keys, contracts)."""
