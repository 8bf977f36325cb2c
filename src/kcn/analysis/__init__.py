"""Numerical analysis: failure probabilities, attack costs, bandwidth."""
