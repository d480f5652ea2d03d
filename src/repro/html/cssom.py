"""CSS object model: stylesheet parsing, cascade, and computed style.

The layout engine and the style-variant generator need real CSS semantics:
parse ``<style>`` blocks and inline ``style=""`` attributes, resolve the
cascade (origin < specificity < source order, ``!important`` on top), inherit
inheritable properties, and resolve lengths (``px``, ``pt``, ``em``, ``%``)
against the parent context.

At-rules (``@media`` etc.) are skipped whole; unknown properties are carried
through untouched so serialization round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.html.dom import Document, Element
from repro.html.selectors import Selector, compile_selector_list
from repro.obs.metrics import GLOBAL_METRICS

# Properties whose computed value transfers from parent to child.
INHERITED_PROPERTIES = frozenset(
    {
        "color", "font-family", "font-size", "font-style", "font-weight",
        "line-height", "letter-spacing", "text-align", "visibility",
        "word-spacing", "list-style-type",
    }
)

# Browser-default pixel font size; pt -> px uses the CSS 96/72 ratio.
DEFAULT_FONT_SIZE_PX = 16.0
PX_PER_PT = 96.0 / 72.0

_LENGTH_RE = re.compile(r"^(-?\d+(?:\.\d+)?)(px|pt|em|rem|%)?$")


@dataclass(frozen=True)
class Declaration:
    """One ``property: value`` pair."""

    prop: str
    value: str
    important: bool = False

    def serialize(self) -> str:
        bang = " !important" if self.important else ""
        return f"{self.prop}: {self.value}{bang}"


@dataclass
class Rule:
    """One style rule: a selector list and its declaration block."""

    selectors: List[Selector]
    declarations: List[Declaration]
    source_order: int = 0

    def serialize(self) -> str:
        selector_text = ", ".join(s.source for s in self.selectors)
        body = "; ".join(d.serialize() for d in self.declarations)
        return f"{selector_text} {{ {body} }}"


@dataclass
class Stylesheet:
    """An ordered list of rules."""

    rules: List[Rule] = field(default_factory=list)

    def serialize(self) -> str:
        return "\n".join(rule.serialize() for rule in self.rules)

    def extend(self, other: "Stylesheet") -> None:
        """Append another sheet's rules, renumbering source order."""
        base = len(self.rules)
        for offset, rule in enumerate(other.rules):
            rule.source_order = base + offset
            self.rules.append(rule)


def parse_declarations(block: str) -> List[Declaration]:
    """Parse the inside of a declaration block (or a style attribute)."""
    declarations: List[Declaration] = []
    for chunk in block.split(";"):
        chunk = chunk.strip()
        if not chunk or ":" not in chunk:
            continue
        prop, _, value = chunk.partition(":")
        prop = prop.strip().lower()
        value = value.strip()
        important = False
        if value.lower().endswith("!important"):
            important = True
            value = value[: -len("!important")].rstrip().rstrip("!").rstrip()
        if prop and value:
            declarations.append(Declaration(prop, value, important))
    return declarations


def _strip_comments(text: str) -> str:
    return re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)


def parse_stylesheet(text: str) -> Stylesheet:
    """Parse CSS text into a :class:`Stylesheet`.

    At-rules with blocks (``@media``, ``@font-face``...) are skipped whole;
    at-rules without blocks (``@import``, ``@charset``) are skipped to the
    next semicolon. Rules whose selectors fail to compile are dropped, as a
    browser would drop them.
    """
    text = _strip_comments(text)
    sheet = Stylesheet()
    pos = 0
    order = 0
    length = len(text)
    while pos < length:
        # Skip whitespace.
        while pos < length and text[pos].isspace():
            pos += 1
        if pos >= length:
            break
        if text[pos] == "@":
            pos = _skip_at_rule(text, pos)
            continue
        brace = text.find("{", pos)
        if brace == -1:
            break  # trailing garbage with no block
        selector_text = text[pos:brace].strip()
        end = _find_block_end(text, brace)
        body = text[brace + 1 : end]
        pos = end + 1
        if not selector_text:
            continue
        try:
            selectors = compile_selector_list(selector_text)
        except Exception:
            continue  # drop unparseable rule, keep going
        declarations = parse_declarations(body)
        if declarations:
            sheet.rules.append(Rule(selectors, declarations, order))
            order += 1
    return sheet


def _find_block_end(text: str, brace: int) -> int:
    """Index of the '}' closing the block opened at ``brace``."""
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _skip_at_rule(text: str, pos: int) -> int:
    brace = text.find("{", pos)
    semi = text.find(";", pos)
    if semi != -1 and (brace == -1 or semi < brace):
        return semi + 1
    if brace == -1:
        return len(text)
    return _find_block_end(text, brace) + 1


def collect_document_styles(document: Document) -> Stylesheet:
    """Gather every ``<style>`` block in the document into one sheet,
    in document order."""
    combined = Stylesheet()
    for element in document.iter_elements():
        if element.tag == "style":
            text = "".join(
                child.data for child in element.children if hasattr(child, "data")
            )
            combined.extend(parse_stylesheet(text))
    return combined


def parse_length(
    value: str,
    parent_px: float,
    root_px: float = DEFAULT_FONT_SIZE_PX,
    percent_base: Optional[float] = None,
) -> Optional[float]:
    """Resolve a CSS length to pixels; None when unresolvable."""
    match = _LENGTH_RE.match(value.strip())
    if not match:
        return None
    number = float(match.group(1))
    unit = match.group(2) or "px"
    if unit == "px":
        return number
    if unit == "pt":
        return number * PX_PER_PT
    if unit == "em":
        return number * parent_px
    if unit == "rem":
        return number * root_px
    if unit == "%":
        base = percent_base if percent_base is not None else parent_px
        return number / 100.0 * base
    return None


class RuleIndex:
    """Browser-style rule buckets keyed on the rightmost compound selector.

    A brute-force cascade tests every selector of every rule against every
    element — O(rules x elements) with most tests failing trivially. Real
    engines bucket each selector by the most selective simple selector of its
    *rightmost* compound (id beats class beats tag beats universal): an
    element can only match a selector whose rightmost compound names one of
    the element's own id/classes/tag, so the cascade only runs the full match
    on those candidates.
    """

    __slots__ = ("by_id", "by_class", "by_tag", "universal")

    def __init__(self, rules: List[Rule]):
        # Buckets hold (rule, selector, specificity) triples; specificity is
        # precomputed so the cascade never re-derives it per element.
        self.by_id: Dict[str, list] = {}
        self.by_class: Dict[str, list] = {}
        self.by_tag: Dict[str, list] = {}
        self.universal: list = []
        for rule in rules:
            for selector in rule.selectors:
                entry = (rule, selector, selector.specificity())
                self._bucket_for(selector).append(entry)

    def _bucket_for(self, selector: Selector) -> list:
        rightmost = selector.compounds[-1]
        for part in rightmost.parts:
            if part.kind == "id":
                return self.by_id.setdefault(part.value, [])
        for part in rightmost.parts:
            if part.kind == "class":
                return self.by_class.setdefault(part.value, [])
        for part in rightmost.parts:
            if part.kind == "tag" and part.value != "*":
                return self.by_tag.setdefault(part.value, [])
        return self.universal

    def candidates(self, element: Element):
        """Yield the (rule, selector, specificity) entries that could match
        ``element``. Each entry appears at most once: a selector lives in
        exactly one bucket, and each of the element's keys is distinct."""
        element_id = element.id
        if element_id:
            bucket = self.by_id.get(element_id)
            if bucket:
                yield from bucket
        if self.by_class:
            for name in element.classes:
                bucket = self.by_class.get(name)
                if bucket:
                    yield from bucket
        bucket = self.by_tag.get(element.tag)
        if bucket:
            yield from bucket
        yield from self.universal


class StyleResolver:
    """Computes the cascaded + inherited style of elements in a document.

    ``use_index=True`` (the default) routes the cascade through a
    :class:`RuleIndex`; ``use_index=False`` keeps the brute-force
    rule-by-rule scan as a reference implementation — the two are asserted
    equivalent by the property tests in ``tests/test_html_cssom.py``.
    """

    def __init__(
        self,
        document: Document,
        user_agent_sheet: Optional[Stylesheet] = None,
        use_index: bool = True,
    ):
        self.document = document
        self.sheet = Stylesheet()
        if user_agent_sheet is not None:
            # User-agent rules lose every cascade tie: give them the most
            # negative source order and rely on specificity ordering below.
            for offset, rule in enumerate(user_agent_sheet.rules):
                self.sheet.rules.append(
                    Rule(rule.selectors, rule.declarations, -len(user_agent_sheet.rules) + offset)
                )
        self.sheet.extend(collect_document_styles(document))
        self.use_index = use_index
        self._index: Optional[RuleIndex] = RuleIndex(self.sheet.rules) if use_index else None
        # Keyed on the node itself (identity hash), not id(node): id() values
        # are reused once an element is garbage-collected, which would let a
        # dead element's style leak onto an unrelated new one. Holding the
        # node as the key both prevents the reuse and keeps lookups O(1).
        self._cache: Dict[Element, Dict[str, str]] = {}

    def _cascaded(self, element: Element) -> Dict[str, str]:
        """Declared values after the cascade, before inheritance."""
        weighted: Dict[str, Tuple[Tuple[int, int, int, int], int, str]] = {}

        def consider(prop, value, important, specificity, order):
            key = (1 if important else 0,) + specificity
            existing = weighted.get(prop)
            if existing is None or (key, order) >= (existing[0], existing[1]):
                weighted[prop] = (key, order, value)

        if self._index is not None:
            # Indexed path: only candidate rules are match-tested. For a rule
            # with several matching selectors the best specificity wins, as
            # in the brute-force path. Processing order across rules cannot
            # change the outcome: ``consider`` totally orders declarations by
            # (importance, specificity, source order).
            best_by_rule: Dict[int, Tuple[Rule, Tuple[int, int, int]]] = {}
            candidates = 0
            for rule, selector, specificity in self._index.candidates(element):
                candidates += 1
                if not selector.matches(element):
                    continue
                current = best_by_rule.get(id(rule))
                if current is None or specificity > current[1]:
                    best_by_rule[id(rule)] = (rule, specificity)
            GLOBAL_METRICS.add("cascade.candidates_tested", candidates)
            for rule, best in best_by_rule.values():
                for declaration in rule.declarations:
                    consider(
                        declaration.prop,
                        declaration.value,
                        declaration.important,
                        best,
                        rule.source_order,
                    )
        else:
            GLOBAL_METRICS.add("cascade.candidates_tested", len(self.sheet.rules))
            for rule in self.sheet.rules:
                matched = [s for s in rule.selectors if s.matches(element)]
                if not matched:
                    continue
                best = max(s.specificity() for s in matched)
                for declaration in rule.declarations:
                    consider(
                        declaration.prop,
                        declaration.value,
                        declaration.important,
                        best,
                        rule.source_order,
                    )
        # Inline style outranks any sheet specificity.
        for prop, value in element.style_declarations().items():
            weighted[prop] = (((2, 0, 0, 0)), 1 << 30, value)
        return {prop: entry[2] for prop, entry in weighted.items()}

    def computed_style(self, element: Element) -> Dict[str, str]:
        """Computed style: cascade + inheritance (string values).

        ``font-size`` is additionally resolved to a pixel string so relative
        units compose correctly down the tree.
        """
        cached = self._cache.get(element)
        if cached is not None:
            return cached
        GLOBAL_METRICS.add("cascade.elements", 1)
        parent_style: Dict[str, str] = {}
        if element.parent is not None:
            parent_style = self.computed_style(element.parent)
        style: Dict[str, str] = {
            prop: value
            for prop, value in parent_style.items()
            if prop in INHERITED_PROPERTIES
        }
        cascaded = self._cascaded(element)
        parent_font_px = _font_px(parent_style)
        for prop, value in cascaded.items():
            if value == "inherit":
                if prop in parent_style:
                    style[prop] = parent_style[prop]
                continue
            if prop == "font-size":
                resolved = parse_length(value, parent_font_px, percent_base=parent_font_px)
                style[prop] = f"{resolved}px" if resolved is not None else value
            else:
                style[prop] = value
        style.setdefault("font-size", f"{parent_font_px}px")
        self._cache[element] = style
        return style

    def font_size_px(self, element: Element) -> float:
        """Computed font size in pixels."""
        return _font_px(self.computed_style(element))

    def invalidate(self) -> None:
        """Drop the computed-style cache after document mutation."""
        self._cache.clear()


def _font_px(style: Dict[str, str]) -> float:
    value = style.get("font-size")
    if not value:
        return DEFAULT_FONT_SIZE_PX
    resolved = parse_length(value, DEFAULT_FONT_SIZE_PX)
    return resolved if resolved is not None else DEFAULT_FONT_SIZE_PX
