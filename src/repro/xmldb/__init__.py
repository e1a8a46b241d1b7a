"""A native tree/XML store: the reproduction's Timber substitute.

The paper's target database (MiMI) ran on Timber, a native XML database;
CPDB required only that the target expose a *fully-keyed* tree view and
translate tree updates to native updates (Figure 6).  This package
provides exactly that:

* :class:`XMLDatabase` — a node store with stable node identifiers,
  parent/child links, keyed child addressing and byte accounting;
* :mod:`repro.xmldb.keys` — key specifications ("Keys for XML") that turn
  ordered, repeated XML elements into keyed tree edges;
* :mod:`repro.xmldb.xpath` — a small XPath-subset evaluator (child,
  wildcard, descendant, leaf-equality predicates) used by approximate
  provenance;
* :mod:`repro.xmldb.serialize` — print a keyed tree as XML.
"""

from .store import NodeId, XMLDatabase, XMLDBError
from .keys import KeySpec, keyed_view
from .xpath import XPath, XPathError
from .serialize import tree_to_xml

__all__ = [
    "XMLDatabase",
    "XMLDBError",
    "NodeId",
    "KeySpec",
    "keyed_view",
    "XPath",
    "XPathError",
    "tree_to_xml",
]
