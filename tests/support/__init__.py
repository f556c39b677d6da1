"""Test-support code shared by several test modules (not library API)."""
