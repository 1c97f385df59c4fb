"""Flat, prefixed runtime options.

Options form a single flat key/value table.  Keys are built from
underscore-separated words; solver components read their settings through
a prefix (`fieldsplit_0_ksp_rtol`), so one table configures an entire
nested solver tree.  `-prefix_push p_` / `-prefix_pop` scope a group of
command-line or file entries under a common prefix.  An option without a
value is an implicit boolean flag ("true").  Every read is recorded so
that unused (usually misspelled) options can be reported.
"""

from __future__ import annotations

import contextlib
import re

__all__ = ["OptionsDB", "BadOptionName", "BadOptionValue", "option_values"]

_KEY_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


class BadOptionName(Exception):
    pass


class BadOptionValue(ValueError):
    pass


@contextlib.contextmanager
def option_values():
    """A ValueError raised in the block, where every argument checked came
    from an option, raised again as the BadOptionValue it is."""
    try:
        yield
    except ValueError as exc:
        raise BadOptionValue(str(exc)) from exc


def _is_option_token(tok):
    """A token names an option when it starts with '-' followed by a
    letter; '-1e-8' and '--' are values/separators, not option names."""
    return len(tok) > 1 and tok[0] == "-" and tok.lstrip("-")[:1].isalpha()


class OptionsDB:
    """Insertion-ordered flat option table with prefix scoping and usage
    tracking."""

    def __init__(self):
        self._values = {}
        self._used = set()

    # -- population --------------------------------------------------------

    def set(self, key, value="true"):
        if not _KEY_RE.match(key):
            raise BadOptionName(f"invalid option name {key!r}")
        self._values[key] = str(value)

    def parse_args(self, argv):
        """Consume a token stream of `-key [value]` pairs.  Returns self."""
        stack = []
        i = 0
        argv = list(argv)
        while i < len(argv):
            tok = argv[i]
            if not _is_option_token(tok):
                raise BadOptionName(f"expected an option, got {tok!r}")
            key = tok.lstrip("-")
            if key == "prefix_push":
                if i + 1 >= len(argv) or _is_option_token(argv[i + 1]):
                    raise BadOptionValue("-prefix_push needs a prefix value")
                stack.append(argv[i + 1])
                i += 2
                continue
            if key == "prefix_pop":
                if not stack:
                    raise BadOptionValue("-prefix_pop without matching push")
                stack.pop()
                i += 1
                continue
            if i + 1 < len(argv) and not _is_option_token(argv[i + 1]):
                value = argv[i + 1]
                i += 2
            else:
                value = "true"
                i += 1
            self.set("".join(stack) + key, value)
        if stack:
            raise BadOptionValue(f"unpopped prefixes at end of options: "
                                 f"{''.join(stack)!r}")
        return self

    def parse_file(self, source):
        """Read options from a file path or open stream; `#` starts a
        comment, tokens split on whitespace across lines."""
        if hasattr(source, "read"):
            text = source.read()
        else:
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError:
                raise BadOptionValue(f"options file {source}: not UTF-8 "
                                     f"text") from None
        tokens = []
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        return self.parse_args(tokens)

    # -- queries -----------------------------------------------------------

    def __contains__(self, key):
        return key in self._values

    def __len__(self):
        return len(self._values)

    def keys(self):
        return list(self._values)

    def get(self, key, default=None):
        if key in self._values:
            self._used.add(key)
            return self._values[key]
        return default

    def get_bool(self, key, default=False):
        v = self.get(key)
        if v is None:
            return default
        low = v.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise BadOptionValue(f"option -{key}: cannot read {v!r} as a bool")

    def get_int(self, key, default=None):
        v = self.get(key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError:
            raise BadOptionValue(f"option -{key}: cannot read {v!r} as an int")

    def get_float(self, key, default=None):
        v = self.get(key)
        if v is None:
            return default
        try:
            return float(v)
        except ValueError:
            raise BadOptionValue(f"option -{key}: cannot read {v!r} as a float")

    # -- bookkeeping -------------------------------------------------------

    def unused(self):
        """Options that were set but never queried, in insertion order."""
        return [k for k in self._values if k not in self._used]

    def __repr__(self):
        return f"OptionsDB({len(self._values)} options)"

