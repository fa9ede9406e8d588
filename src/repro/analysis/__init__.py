"""The state certificate (:mod:`repro.analysis.bounds`): each state
slot's symbolic bound and the plan's per-unit-time cost, attached to a
driver when it is built."""

from .bounds import StateCertificate, attach_certificate, derive_certificate

__all__ = ["StateCertificate", "attach_certificate", "derive_certificate"]
