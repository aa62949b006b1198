#!/usr/bin/env python3
"""Public-surface gate for the ten crates below serving (ROADMAP item 28).

Each pub fn, method, struct, enum, trait, const, static, type and `pub use`
name in their non-test code (files split as `ci.sh`'s `split_lines` splits
them) needs a use outside its crate in the non-test code of `crates/*/src`,
`src/`, `examples/` or `benchmark/src`, or a `crate::name reason` line in
scripts/surface.allow (at most 20). A use is a fn's call or import, a `pub use`'s
path through its crate, any other item's name or a used signature naming it.
"""
import pathlib, re, sys

CRATES = "arith sets deps ir front core codegen gpusim tune workloads".split()
ITEM = re.compile(r"\bpub (?:(?:const|unsafe|async) )*(fn|struct|enum|trait|const|static|type|use) ")
END = {"fn": "[{;]", "const": "[=;]", "static": "[=;]", "use": ";"}
IDENT = re.compile(r"[A-Za-z_]\w*")
root = pathlib.Path(__file__).resolve().parent.parent
rs_files = lambda *dirs: [p for d in dirs for p in sorted((root / d).rglob("*.rs"))]

def non_test(path):
    """The file's lines, comments cut, each test module blanked: from its
    `#[cfg(test)]` line to its closing `}` in column 0 (rustfmt's)."""
    out, cfg, test = [], False, False
    for line in path.read_text().splitlines():
        if cfg and re.match(r"(pub(\(crate\))? )?mod ", line):
            test, out[-1] = True, ""
        cfg = not test and bool(re.match(r"#\[cfg\((test|all\(test, .*\))\)\]$", line))
        out.append("" if test else re.sub(r"//.*", "", line))
        test = test and not line.startswith("}")
    return out

def declared(lines):
    """(line, kind, name, identifiers of its signature) of each pub item."""
    owner = None  # the type of the enclosing `impl`: its methods' signatures are no use of it
    for i, line in enumerate(lines):
        if line.startswith("impl"):
            owner = re.findall(r"^impl\b(?:<[^>]*>)?(?:.* for)? (\w+)", line)[0]
        m = ITEM.search(line)
        kind, text, j = m and m.group(1), line[m.end():] if m else "", i
        while m and j + 1 < len(lines):  # a header up to `{`, `=` or `;`; a type with its body
            if re.search(END[kind], text) if kind in END else "{" in text and text.count("{") <= text.count("}") or "{" not in text and ";" in text:
                break
            j += 1
            text += " " + (lines[j] if kind != "struct" or "pub " in lines[j] else re.sub(r"[^{}]", "", lines[j]))  # no private field
        text = re.split(END[kind], text)[0] if kind in END else text
        if kind and kind != "use":
            name = IDENT.match(text).group()
            yield i + 1, kind, name, set(IDENT.findall(text)) - {name, line[:1] == " " and owner}
        for path in re.sub(r"[{}]", ",", text).split(",") if kind == "use" else []:  # each leaf
            words = IDENT.findall(path)
            if words and not path.strip().endswith(("*", "::")) and words[-1] not in ("self", "super", "crate"):
                yield i + 1, kind, words[-1], set(words[-3:-2]) if "as" in words[-2:-1] else set()

def uses(text):
    paths = {c: set(IDENT.findall(" ".join(re.findall(rf"(?:polyject_{c}|\b{c})::((?:\w+::)*(?:\{{[^;]*|\w+))", text)))) for c in CRATES}
    calls = set(re.findall(r"(?<!fn )\b([A-Za-z_]\w*)\s*(?:::<|\()", text))
    calls -= {a or b for a, b in re.findall(r"\blet (?:mut )?(\w+)|\bmut (\w+):", text)}
    calls |= set(re.findall(r"(?:\.|::)\s*([A-Za-z_]\w*)", text)) | set(IDENT.findall(" ".join(re.findall(r"\buse\s[^;]*;", text))))
    return {"fn": calls, "use": paths, "": set(IDENT.findall(text))}

found = {p: uses("\n".join(non_test(p))) for p in rs_files("src", "examples", "benchmark/src", *(f"crates/{c.name}/src" for c in root.glob("crates/*")))}
allow, bad, exported = {}, [], set()
for n, line in enumerate((root / "scripts/surface.allow").read_text().splitlines(), 1):
    key, _, reason = line.strip().partition(" ")
    if key and not key.startswith("#"):
        allow[key] = reason.strip() or bad.append(f"scripts/surface.allow:{n}: `{key}` has no reason")
bad += [f"scripts/surface.allow: {len(allow)} names, above 20"] * (len(allow) > 20)
for crate in CRATES:
    src = root / "crates" / crate / "src"
    outside = [f for p, f in found.items() if src not in p.parents]
    seen = lambda kind, name: any(name in (f["use"][crate] if kind == "use" else f["fn" if kind == "fn" else ""]) for f in outside)
    items = [(f"{crate}::{name}", kind, f"{p.relative_to(root)}:{n}", sig) for p in rs_files(src.relative_to(root)) for n, kind, name, sig in declared(non_test(p))]
    used, more = set(), {key for key, kind, _, _ in items if key in allow or seen(kind, key.split("::")[1])}
    while more:  # a type, trait or const that a used signature names; the original of a used `a as b`
        used |= more
        named = set().union(*(sig for key, kind, _, sig in items if key in used and kind != "use"))
        renamed = set().union(*(sig for key, kind, _, sig in items if key in used and kind == "use"))
        more = {key for key, kind, _, _ in items if key.split("::")[1] in renamed or kind not in ("fn", "use") and key.split("::")[1] in named} - used
    exported |= {key for key, *_ in items}
    print(f"{crate}: {len(items)} exports")
    bad += [f"{at}: unused export {key} ({kind}): make it pub(crate), delete it, or allow-list it" for key, kind, at, _ in items if key not in used]
bad += [f"scripts/surface.allow: `{key}` is no export below serving" for key in allow if key not in exported]
sys.exit("\n".join(bad) or None)
