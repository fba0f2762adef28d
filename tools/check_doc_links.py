#!/usr/bin/env python3
"""Fails when README.md or docs/*.md has a broken relative link or anchor.

Usage: python3 tools/check_doc_links.py [ROOT]   (default: the repository
this script sits in)

Checks every Markdown link `[text](target)` outside fenced code blocks.
Absolute URLs (http, https, mailto) and links that leave ROOT (the CI badge's
GitHub-relative path) are skipped. A target file must exist; a `#fragment`
into a Markdown file must name one of its headings, slugged the way GitHub
slugs them. Prints each broken link and a summary line, and exits 1 when any
link is broken.
"""
import glob
import os
import re
import sys

LINK = re.compile(r'\[[^\]]*\]\(([^)\s]+)\)')


def slug(heading):
    s = heading.strip().lower().replace('`', '')
    s = re.sub(r'[^a-z0-9 _-]', '', s)
    return s.replace(' ', '-')


def unfenced_lines(path):
    """Yields (line number, line) for each line outside ``` fences."""
    fenced = False
    with open(path, encoding='utf-8') as f:
        for ln, line in enumerate(f, 1):
            if line.lstrip().startswith('```'):
                fenced = not fenced
                continue
            if not fenced:
                yield ln, line


def headings(path):
    return {slug(line.lstrip('#')) for _, line in unfenced_lines(path) if line.startswith('#')}


def main(root):
    root = os.path.realpath(root)
    os.chdir(root)
    files = sorted(['README.md'] + glob.glob('docs/*.md'))
    anchors = {f: headings(f) for f in files}
    errors, checked = [], 0
    for f in files:
        base = os.path.dirname(f)
        for ln, line in unfenced_lines(f):
            for target in LINK.findall(line):
                if target.startswith(('http://', 'https://', 'mailto:')):
                    continue
                path, _, frag = target.partition('#')
                dest = os.path.normpath(os.path.join(base, path)) if path else f
                if not os.path.realpath(dest).startswith(root + os.sep):
                    continue  # GitHub-relative links above the repo root (CI badge)
                checked += 1
                if not os.path.exists(dest):
                    errors.append(f'{f}:{ln}: broken link {target} (no such file {dest})')
                elif frag:
                    known = anchors.get(dest)
                    if known is not None and frag not in known:
                        errors.append(
                            f'{f}:{ln}: broken anchor {target} (no heading #{frag} in {dest})')
    for e in errors:
        print(e)
    print(f'{checked} relative links checked across {len(files)} files, {len(errors)} broken')
    return 1 if errors else 0


if __name__ == '__main__':
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else default_root))
