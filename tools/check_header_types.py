#!/usr/bin/env python3
"""Fails when two headers define the same type name in the same scope.

Two different definitions of one class in one namespace break the one
definition rule: each translation unit that sees its own layout emits weak
symbols (vector members, inline functions) under the same mangled names, and
the linker keeps whichever it meets first. Nothing diagnoses it; the program
just corrupts memory.

Usage: python3 tools/check_header_types.py [ROOT...]   (default: src)

Scans every *.hpp / *.h under each ROOT, tracks namespace and class scopes,
and records each struct / class / union / enum *definition* (a head followed
by a body). Forward declarations (`class Graph;`), types local to a function
body and types in an anonymous namespace do not count. Exits 1 and lists the
clashes when a fully qualified name is defined in more than one header.
"""
import re
import sys
from collections import defaultdict
from pathlib import Path

TOKEN = re.compile(r'::|[A-Za-z_]\w*|\d[\w.]*|\S')
KEYWORDS = {'struct', 'class', 'union', 'enum'}


def strip(text):
    """Drops comments, string/char literals and preprocessor lines."""
    text = re.sub(r'//[^\n]*|/\*.*?\*/', ' ', text, flags=re.S)
    text = re.sub(r'R"(\w*)\(.*?\)\1"', '""', text, flags=re.S)
    text = re.sub(r'"(\\.|[^"\\\n])*"|\'(\\.|[^\'\\\n])*\'', '""', text)
    text = re.sub(r'^\s*#(?:[^\n]*\\\n)*[^\n]*', ' ', text, flags=re.M)
    return text


def skip_balanced(tokens, i, open_tok, close_tok):
    """Index just past the group opened at tokens[i] == open_tok."""
    depth = 0
    while i < len(tokens):
        if tokens[i] == open_tok:
            depth += 1
        elif tokens[i] == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def defined_type(head):
    """The name a struct/class/union/enum head defines, or None."""
    for k, tok in enumerate(head):
        if tok not in KEYWORDS:
            continue
        i = k + 1
        if tok == 'enum' and i < len(head) and head[i] in ('class', 'struct'):
            i += 1
        while i < len(head) and head[i] in ('[', 'alignas'):  # attributes
            if head[i] == '[':
                i = skip_balanced(head, i, '[', ']')
            else:
                i = skip_balanced(head, i + 1, '(', ')')
        if i >= len(head) or not re.match(r'[A-Za-z_]', head[i]) or head[i] in KEYWORDS:
            continue
        name, i = head[i], i + 1
        if i < len(head) and head[i] == '<':  # a specialization
            end = skip_balanced(head, i, '<', '>')
            name += ''.join(head[i:end])
            i = end
        if i < len(head) and head[i] == 'final':
            i += 1
        if i == len(head) or head[i] == ':':
            return name
    return None


def definitions(path):
    """Yields the qualified name of every type the header defines."""
    tokens = TOKEN.findall(strip(path.read_text()))
    scopes = []  # (kind, name): kind is 'ns', 'anon', 'type' or 'block'
    head = []
    for tok in tokens:
        if tok == '{':
            name = defined_type(head)
            if name is not None:
                if all(kind in ('ns', 'type') for kind, _ in scopes):
                    yield '::'.join([n for _, n in scopes if n] + [name])
                scopes.append(('type', name))
            elif 'namespace' in head:
                parts = head[head.index('namespace') + 1:]
                scopes.append(('ns', ''.join(parts)) if parts else ('anon', ''))
            elif head[:1] == ['extern'] and len(head) == 2:  # extern "C" {
                scopes.append(('ns', ''))
            else:
                scopes.append(('block', ''))
            head = []
        elif tok == '}':
            if scopes:
                scopes.pop()
            head = []
        elif tok == ';':
            head = []
        else:
            head.append(tok)


def main(roots):
    where = defaultdict(set)
    for root in roots:
        for path in sorted(Path(root).rglob('*')):
            if path.suffix in ('.hpp', '.h'):
                for name in definitions(path):
                    where[name].add(str(path))
    clashes = {name: files for name, files in where.items() if len(files) > 1}
    for name in sorted(clashes):
        print(f'{name} is defined in {len(clashes[name])} headers: '
              + ', '.join(sorted(clashes[name])), file=sys.stderr)
    return 1 if clashes else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:] or ['src']))
