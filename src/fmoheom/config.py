"""Run configuration: flat dotted-key text files plus command-line overrides.

The format is one `key = value` pair per line, `#` comments, with dotted
key paths (e.g. `system.truncation_N = 6`). Unknown keys are rejected with
the offending path. A value stays text until its key's parser reads it.
The defaults are the paper's parameter set with a start localized on
site 1: N = 12, 300 K, lambda = 35 cm^-1, gamma^-1 = 50 fs, trap time
1 ps on sites 3 and 4, 1000 fs of dynamics sampled every 1 fs, all 21
pairs.
"""

import re
from dataclasses import dataclass

from .heom import IntegratorConfig, check_step_count
from .measures import all_pairs
from .model import SystemParams, check_site

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def parse_config_text(text):
    """Parse `key = value` lines into a flat dict of stripped value texts; a
    key set on two lines is refused."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in lines:
            raise ConfigError(f"{key} is set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def _integer(value):
    """An integer from integer text, integral float text such as "2.0", or a
    number of either kind; "2.7" is refused, quoted as given."""
    text = str(value)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
        if number.is_integer():
            return int(number)
    except ValueError:
        pass
    raise ValueError(f"must be an integer, got {value!r}")


def _parse_kind(value):
    if value not in ("localized", "fret"):
        raise ValueError(f"must be localized or fret, got {value!r}")
    return value


def _parse_pairs(value):
    if value == "all":
        return "all"
    pairs = []
    for chunk in str(value).split(","):
        chunk = chunk.strip()
        try:
            m, n = chunk.split("-")
            m, n = _integer(m), _integer(n)
        except ValueError:
            raise ValueError(f"bad pair {chunk!r}, expected like 1-2") from None
        if m == n:
            raise ValueError(f"sites must differ in {chunk!r}")
        pair = (min(m, n), max(m, n))
        if pair in pairs:
            raise ValueError(f"pair {chunk!r} repeats {pair[0]}-{pair[1]}")
        pairs.append(pair)
    return pairs


def _parse_sites(value):
    """Sites from text such as "3,4"; empty text is no site."""
    text = str(value)
    return tuple(_integer(s) for s in text.split(",")) if text else ()


def _unparse(value):
    """Config text of a parsed value: sites as "3,4", pairs as "1-2,5-6"."""
    if isinstance(value, (tuple, list)):
        return ",".join("-".join(map(str, v)) if isinstance(v, tuple) else str(v)
                        for v in value)
    return value


# Every configuration key: dotted key -> (section, attribute, parser). The
# "run" section holds the RunConfig fields themselves; "params" and
# "integrator" are its SystemParams and IntegratorConfig. A key that is
# not set takes the default of its attribute.
_KEYS = {
    "initial.kind": ("run", "initial_kind", _parse_kind),
    "initial.site": ("run", "initial_site", _integer),
    "system.truncation_N": ("params", "truncation_N", _integer),
    "system.temperature_K": ("params", "temperature_K", float),
    "system.lambda_cm": ("params", "lambda_cm", float),
    "system.gamma_inv_fs": ("params", "gamma_inv_fs", float),
    "system.trap_rate_inv_ps": ("params", "trap_rate_inv_ps", float),
    "system.trap_sites": ("params", "trap_sites", _parse_sites),
    "system.t_end_fs": ("params", "t_end_fs", float),
    "system.dt_out_fs": ("params", "dt_out_fs", float),
    "integrator.abs_tol": ("integrator", "abs_tol", float),
    "integrator.rel_tol": ("integrator", "rel_tol", float),
    "integrator.initial_step_fs": ("integrator", "initial_step_fs", float),
    "integrator.max_step_fs": ("integrator", "max_step_fs", float),
    "pairs": ("run", "pairs", _parse_pairs),
}


# Attribute -> dotted key, to name the key in SystemParams/IntegratorConfig errors.
_ATTR_KEYS = {attr: key for key, (section, attr, _) in _KEYS.items()
              if section != "run"}


def _parse(key, parser, value):
    try:
        return parser(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    integrator: IntegratorConfig
    initial_kind: str = "localized"  # or "fret"
    initial_site: int = 1
    pairs: object = "all"  # or a list of (m, n)

    def pair_list(self):
        if self.pairs == "all":
            return all_pairs()
        return list(self.pairs)

    def as_flat_dict(self):
        """Fully resolved configuration, suitable for the run manifest."""
        sections = {"run": self, "params": self.params,
                    "integrator": self.integrator}
        flat = {"schema_version": SCHEMA_VERSION}
        for key, (section, attr, _) in _KEYS.items():
            flat[key] = _unparse(getattr(sections[section], attr))
        return flat


def build_run_config(flat):
    """Validate a flat key dict and assemble a RunConfig."""
    flat = dict(flat)
    version = _parse("schema_version", _integer,
                     flat.pop("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported version {version}")
    unknown = sorted(set(flat) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration key: {unknown[0]}")

    kwargs = {"run": {}, "params": {}, "integrator": {}}
    for key, value in flat.items():
        section, attr, parser = _KEYS[key]
        kwargs[section][attr] = _parse(key, parser, value)
    try:
        params = SystemParams(**kwargs["params"])
        integrator = IntegratorConfig(**kwargs["integrator"])
        check_step_count(params.t_end_fs, integrator.max_step_fs)
        cfg = RunConfig(params=params, integrator=integrator, **kwargs["run"])
        check_site(cfg.initial_site, "initial.site")
        for m, n in cfg.pair_list():
            check_site(m, "pairs")
            check_site(n, "pairs")
    except ValueError as exc:
        message = re.sub(r"\w+", lambda w: _ATTR_KEYS.get(w[0], w[0]), str(exc))
        raise ConfigError(message) from exc
    return cfg


def load_run_config(path=None, overrides=()):
    """Read an optional config file and apply `key=value` override strings;
    a key given by two overrides is refused."""
    flat, given = {}, {}
    if path is not None:
        with open(path, encoding="utf-8-sig") as fh:
            flat.update(parse_config_text(fh.read()))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"override has an empty key: {item!r}")
        if key in given:
            raise ConfigError(f"{key} is set twice by --set")
        given[key] = value.strip()
    flat.update(given)
    return build_run_config(flat)
