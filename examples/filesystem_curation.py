"""Curating a plain directory tree with full provenance.

"Source and target databases can be relational or XML DBMSs, or consist
of files stored in filesystems or Web sites; all are common forms of
scientific databases" (Section 1.3).  This example wraps an ordinary
directory as the curated target:

* the source is the relational engine (an OrganelleDB-like catalog);
* the target is a directory of plain files, updated through the
  provenance-aware editor;
* the provenance store survives alongside, and version archives are
  taken at each commit — so any reference version of the *file tree*
  can be reconstructed and every file's origin queried.

The directory is a temporary one, removed when the example exits.

Run:  python examples/filesystem_curation.py
"""

import os
import tempfile

from repro import (
    CurationEditor,
    FileSystemTargetDB,
    ProvTable,
    ProvenanceQueries,
    RelationalSourceDB,
    VersionArchive,
    make_store,
)
from repro.workloads.synth import organelledb_like


def main() -> None:
    # the curated directory lives as long as the run, errors included
    with tempfile.TemporaryDirectory(prefix="curated_fsdb_") as workdir:
        curate(workdir)


def curate(workdir: str) -> None:
    os.makedirs(os.path.join(workdir, "proteins"))

    source_db = organelledb_like(n_proteins=10, seed=3)
    source = RelationalSourceDB("OrganelleDB", source_db)
    target = FileSystemTargetDB("FsDB", workdir)

    archive = VersionArchive()
    store = make_store("HT", ProvTable())
    editor = CurationEditor(
        target=target, sources=[source], store=store, archive=archive
    )

    # Curate: import two protein records (each becomes a directory of
    # field files), then annotate one by hand.
    editor.copy_paste("OrganelleDB/protein/O00000", "FsDB/proteins/O00000")
    editor.copy_paste("OrganelleDB/protein/O00003", "FsDB/proteins/O00003")
    v1 = editor.commit()
    editor.insert("FsDB/proteins/O00000", "curator_note", "checked 2026-06-12")
    v2 = editor.commit()

    print(f"Curated directory: {workdir}")
    for root, _dirs, files in sorted(os.walk(workdir)):
        rel = os.path.relpath(root, workdir)
        for name in sorted(files):
            print(f"  {os.path.join(rel, name)}")
    print()

    note = os.path.join(workdir, "proteins", "O00000", "curator_note")
    with open(note) as handle:
        print(f"curator_note content: {handle.read()!r}")
    print()

    queries = ProvenanceQueries(store, target_name="FsDB")
    print("Provenance of the files:")
    print("  localization of O00000 copied in txn:",
          queries.get_hist("FsDB/proteins/O00000/localization"))
    print("  curator_note typed in txn:",
          queries.get_src("FsDB/proteins/O00000/curator_note"))
    print("  everything touching proteins/:",
          sorted(queries.get_mod("FsDB/proteins")))
    print()

    print(f"Archived reference versions: {archive.version_tids}")
    old = archive.reconstruct(v1)
    print(f"  version {v1} had curator_note:",
          old.contains_path("proteins/O00000/curator_note"))
    new = archive.reconstruct(v2)
    print(f"  version {v2} has curator_note:",
          new.contains_path("proteins/O00000/curator_note"))


if __name__ == "__main__":
    main()
