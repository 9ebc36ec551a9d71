package blobstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mindmappings/internal/atlas"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/modelstore"
)

// FuzzManifestRecord feeds an arbitrary record payload, bound to an
// arbitrary id, through the manifest+blob record split and both typed
// stores' manifest decode. SplitRecord must not panic, and what it splits
// must re-encode to a payload that splits the same way. An atlas and a
// model store whose segment holds the record must open, and either index
// one entry under that id or count the record corrupt. The live records
// of the checked-in segment fixtures seed the corpus.
func FuzzManifestRecord(f *testing.F) {
	for _, fixture := range []string{
		filepath.Join("..", "atlas", "testdata", "segment", atlas.SegmentFile),
		filepath.Join("..", "modelstore", "testdata", "segment", modelstore.SegmentFile),
	} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(f.TempDir(), "seed.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			f.Fatal(err)
		}
		seg, _, err := blobstore.OpenSegment[struct{}](path, 0o644, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, id := range seg.IDs() {
			payload, _, err := seg.Get(id)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(id, payload)
		}
		seg.Close()
	}
	f.Add("x", []byte{0x80, 0x00, '{', '}'})
	f.Fuzz(func(t *testing.T, id string, payload []byte) {
		if !blobstore.ValidID(id) || len(id) > 255 {
			return
		}
		if manifest, blob, ok := blobstore.SplitRecord(payload); ok {
			m2, b2, ok := blobstore.SplitRecord(blobstore.EncodeRecord(manifest, blob))
			if !ok || !bytes.Equal(m2, manifest) || !bytes.Equal(b2, blob) {
				t.Fatalf("split %d+%d bytes do not re-encode", len(manifest), len(blob))
			}
		}
		root := t.TempDir()
		write := func(dir, file string) {
			if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
				t.Fatal(err)
			}
			seg, _, err := blobstore.OpenSegment[struct{}](filepath.Join(root, dir, file), 0o644, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.Put(id, payload); err != nil {
				t.Fatal(err)
			}
			seg.Close()
		}
		write("atlas", atlas.SegmentFile)
		write("models", modelstore.SegmentFile)
		a, err := atlas.Open(filepath.Join(root, "atlas"))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		entries, corrupt := a.List(), a.Stats().Corrupt
		if !(len(entries) == 1 && entries[0].ID == id && corrupt == 0) && !(len(entries) == 0 && corrupt == 1) {
			t.Fatalf("atlas indexed %d entries with %d corrupt from one record %q", len(entries), corrupt, id)
		}
		ms, err := modelstore.Open(filepath.Join(root, "models"))
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		models, corrupt := ms.List(), ms.Stats().Corrupt
		if !(len(models) == 1 && models[0].ID == id && corrupt == 0) && !(len(models) == 0 && corrupt == 1) {
			t.Fatalf("model store indexed %d artifacts with %d corrupt from one record %q", len(models), corrupt, id)
		}
	})
}
