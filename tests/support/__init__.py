"""Test-only reference implementations (oracles) shared across suites."""
