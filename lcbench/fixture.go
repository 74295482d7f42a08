package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/pas"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
)

// archiveOpts is the archive configuration every workload uses: the
// `dlv archive` defaults (pas-mt at alpha 2, budgets under the independent
// retrieval scheme).
var archiveOpts = dlv.ArchiveOptions{Algorithm: "pas-mt", Scheme: pas.Independent, Alpha: 2}

// snapKey names one snapshot of one version.
type snapKey struct {
	id   int64
	snap string
}

// fixture is an archived SD repository plus the reference results captured
// from it before archiving. Workloads read it and never write to it.
type fixture struct {
	root     string
	versions []*dlv.Version
	// raw holds every snapshot's weights as committed, read before the
	// archive existed.
	raw           map[snapKey]map[string]*tensor.Matrix
	rawBytes      int64
	archivedBytes int64
}

func (f *fixture) storageRatio() float64 {
	return ratio(float64(f.archivedBytes), float64(f.rawBytes))
}

// buildFixture generates the SD repository in root, captures its raw
// weights and archives it.
func buildFixture(root string, cfg synth.SDConfig) (*fixture, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	repo, err := synth.GenerateSD(root, cfg)
	if err != nil {
		return nil, fmt.Errorf("generate SD: %w", err)
	}
	versions, err := repo.List()
	if err != nil {
		return nil, err
	}
	fx := &fixture{root: root, raw: map[snapKey]map[string]*tensor.Matrix{}}
	for _, v := range versions {
		for _, snap := range v.Snapshots {
			w, err := repo.Weights(v.ID, snap, 4)
			if err != nil {
				return nil, fmt.Errorf("read raw v%d/%s: %w", v.ID, snap, err)
			}
			fx.raw[snapKey{v.ID, snap}] = w
			fx.rawBytes += weightBytes(w)
		}
	}
	store, err := repo.Archive(archiveOpts)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	fx.archivedBytes = store.TotalChunkBytes(4)
	if err := store.Close(); err != nil {
		return nil, err
	}
	// Re-list so every version reads as archived.
	if fx.versions, err = repo.List(); err != nil {
		return nil, err
	}
	return fx, nil
}

// weightBytes is the raw float32 size of a snapshot.
func weightBytes(w map[string]*tensor.Matrix) int64 {
	var n int64
	for _, m := range w {
		n += 4 * int64(len(m.Data()))
	}
	return n
}

// checkpoints lists a version's snapshots other than latest.
func checkpoints(v *dlv.Version) []string {
	var out []string
	for _, s := range v.Snapshots {
		if s != dlv.LatestSnap {
			out = append(out, s)
		}
	}
	return out
}

// queryCase is one DQL statement and the version ids it must return,
// computed from the version list without the DQL engine.
type queryCase struct {
	text string
	want []int64
}

// queryCases expands the fixed query templates — name LIKE, accuracy >=,
// base_lr =, and a graph predicate on ip1 -> relu1 — against the version
// list, each with its expected result set.
func queryCases(versions []*dlv.Version) []queryCase {
	type tmpl struct {
		text string
		keep func(v *dlv.Version) bool
	}
	var ts []tmpl
	for _, p := range []string{"sd-base", "sd-v0", "sd-v1"} {
		p := p
		ts = append(ts, tmpl{fmt.Sprintf(`select m where m.name like "%s%%"`, p),
			func(v *dlv.Version) bool { return strings.HasPrefix(v.Name, p) }})
	}
	for _, p := range []string{"finetune", "widen", "toggle"} {
		p := p
		ts = append(ts, tmpl{fmt.Sprintf(`select m where m.name like "%%%s%%"`, p),
			func(v *dlv.Version) bool { return strings.Contains(v.Name, p) }})
	}
	for _, a := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		a := a
		ts = append(ts, tmpl{fmt.Sprintf(`select m where m.accuracy >= %g`, a),
			func(v *dlv.Version) bool { return v.Accuracy >= a }})
	}
	for _, lr := range []string{"0.05", "0.02", "0.01"} {
		lr := lr
		ts = append(ts, tmpl{fmt.Sprintf(`select m where m.base_lr = "%s"`, lr),
			func(v *dlv.Version) bool { return v.Hyper["base_lr"] == lr }})
	}
	for _, k := range []struct {
		name string
		kind string
	}{{"RELU", dnn.KindReLU}, {"TANH", dnn.KindTanh}} {
		k := k
		ts = append(ts, tmpl{fmt.Sprintf(`select m where m["ip1"].next has %s`, k.name),
			func(v *dlv.Version) bool {
				for _, nb := range v.NetDef.Next("ip1") {
					if n := v.NetDef.Node(nb); n != nil && n.Kind == k.kind {
						return true
					}
				}
				return false
			}})
	}
	out := make([]queryCase, len(ts))
	for i, t := range ts {
		out[i].text = t.text
		for _, v := range versions {
			if t.keep(v) {
				out[i].want = append(out[i].want, v.ID)
			}
		}
		sort.Slice(out[i].want, func(a, b int) bool { return out[i].want[a] < out[i].want[b] })
	}
	return out
}

// copyTree copies the regular files and directories under src to dst,
// which must not exist.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
