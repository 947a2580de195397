"""Test-only reference implementations that the package's fast paths must match."""
