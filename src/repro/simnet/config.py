"""Simulation configuration.

The defaults run a 1/50-scale Internet (20k domains vs Tranco's 1M).
All cohort sizes are *fractions of the population*, so ratios reproduce
at any scale; `noncf_boost` oversamples the tiny non-Cloudflare adopter
cohort so Table 3 / Figure 3 stay statistically meaningful at small
scale (analyses report both raw and scale-corrected shares).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SimConfig:
    """Knobs for the simulated Internet."""

    population: int = 20_000
    seed: str = "imc2024-dnshttps"
    # Bump when cohort/provider modelling changes so cached datasets are
    # invalidated (the cache key hashes the whole config).
    model_version: int = 2

    # -- Tranco list structure -------------------------------------------------
    stable_fraction: float = 0.58  # always-listed share of the population
    source_change_exit_fraction: float = 0.10  # stable domains leaving on Aug 1
    churn_presence_min: float = 0.35  # tail domains' daily presence prob
    churn_presence_max: float = 0.95

    # -- HTTPS adoption ----------------------------------------------------------
    stable_adoption: float = 0.245  # stable (overlapping) domains with HTTPS
    churn_adoption: float = 0.33  # tail domains that (eventually) adopt
    churn_adoption_spread_days: int = 500  # adoption_start spread → rising trend
    stable_deactivation_hazard: float = 0.0006  # per-day post-Aug-1 decline
    www_coverage: float = 0.95  # adopters whose www also has the record
    www_only_fraction: float = 0.015  # adopters with record only on www

    # -- provider mix --------------------------------------------------------------
    noncf_adopter_fraction: float = 0.0013  # paper: 0.11-0.13% of adopters
    noncf_boost: float = 20.0  # oversampling factor at small scale
    cfns_fraction: float = 0.004  # Cloudflare China network share of CF adopters

    # -- Cloudflare config cohorts (fractions of CF adopters) -----------------------
    custom_config_stable: float = 0.28  # Table 4 overlapping: 27.63% customized
    custom_config_churn: float = 0.20  # Table 4 dynamic: 20.04% customized
    free_plan_fraction: float = 0.88  # auto-ECH before Oct 5 (→ ~70% ECH share)
    www_ech_gap: float = 0.10  # free-plan domains whose www record omits ech

    # -- intermittency cohorts (fractions of adopters) --------------------------------
    proxied_toggle_fraction: float = 0.0116  # 2,673 / ~230k
    mixed_provider_fraction: float = 0.0069  # 1,593 / ~230k
    # The NS-change and no-NS cohorts are oversampled x6 (paper: 236 and
    # 20 per 230k adopters) so they remain visible at 1/167 scale;
    # analyses report raw counts with a scale note.
    ns_change_fraction: float = 0.0060
    no_ns_fraction: float = 0.0008

    # -- IP hints ----------------------------------------------------------------------
    hint_mismatch_prefix_fraction: float = 0.02  # pre-Jun-19 mismatch share
    hint_mismatch_post_fraction: float = 0.002  # post-Jun-19 episodic share
    ipv6hint_fraction: float = 0.90  # CF-default domains publishing ipv6hint

    # -- DNSSEC -------------------------------------------------------------------------
    signed_fraction_adopters: float = 0.073  # 16,849 / ~230k
    signed_fraction_others: float = 0.061  # 46,850 / ~770k
    ds_upload_given_cf: float = 0.505  # Table 9: CF-hosted signed HTTPS secure
    ds_upload_given_noncf: float = 0.859
    ds_upload_given_no_https: float = 0.762
    signed_growth_days: int = 240  # overlapping signed share grows (Fig 5b)

    # -- ECH -------------------------------------------------------------------------------
    ech_rotation_hours: float = 1.26  # §4.4.2: mean observed duration
    noncf_ech_fraction: float = 0.33  # non-CF adopters with ech → Cloudflare

    # -- scan mechanics -----------------------------------------------------------------------
    default_ttl: int = 300
    # Negative/SERVFAIL cache TTL of the public resolvers (RFC 2308
    # fallback when no SOA caps it); exposed for negative-cache ablations.
    negative_ttl: int = 60
    wire_mode: bool = False  # route every DNS message through the wire codec

    def scaled(self, count_at_1m: float) -> int:
        """Translate an absolute count from the paper (Tranco 1M) to this
        population's scale."""
        return max(1, round(count_at_1m * self.population / 1_000_000))
