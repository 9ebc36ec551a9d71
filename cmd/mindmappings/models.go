package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"mindmappings/internal/modelstore"
)

// cmdModels lists, garbage-collects, or deletes artifacts in a versioned
// model store (the directory `mindmappings train -store` publishes into
// and `mindmappings serve -store` serves from).
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	storeDir := fs.String("store", "", "artifact store directory (required)")
	gc := fs.Bool("gc", false, "drop superseded versions and crash debris")
	keep := fs.Int("keep", 2, "versions kept per workload with -gc")
	del := fs.String("delete", "", "delete one artifact by ID")
	verbose := fs.Bool("v", false, "also print fingerprints and loss histories")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("models: -store is required")
	}
	store, err := modelstore.Open(*storeDir)
	if err != nil {
		return err
	}
	defer store.Close()
	if *del != "" {
		if err := store.Delete(*del); err != nil {
			return err
		}
		fmt.Printf("deleted %s\n", *del)
		return nil
	}
	if *gc {
		removed, err := store.GC(*keep)
		if err != nil {
			return err
		}
		fmt.Printf("gc: removed %d entries (keeping %d versions per workload)\n", len(removed), *keep)
		for _, id := range removed {
			fmt.Println("  " + id)
		}
		return nil
	}

	manifests := store.List()
	if len(manifests) == 0 {
		fmt.Printf("store %s is empty (train with `mindmappings train -store %s` or POST /v1/train)\n", *storeDir, *storeDir)
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tALGO\tVER\tEPOCHS\tSAMPLES\tTEST LOSS\tPARENT\tSIZE\tCREATED\tNAME")
	for _, m := range manifests {
		parent := m.Parent
		if parent == "" {
			parent = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.4f\t%s\t%dK\t%s\t%s\n",
			m.ID, m.Algo, m.Version, m.Epochs, m.Samples, m.FinalTest,
			parent, m.SizeBytes/1024, m.Created.Format("2006-01-02 15:04"), m.Name)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *verbose {
		for _, m := range manifests {
			fmt.Printf("\n%s (%s v%d)\n", m.ID, m.Algo, m.Version)
			fmt.Printf("  workload fp   %s\n", m.AlgoFP)
			fmt.Printf("  arch fp       %s\n", m.ArchFP)
			fmt.Printf("  cost model    %s (%.12s…)\n", m.CostModel, m.CostModelFP)
			fmt.Printf("  hidden sizes  %v, seed %d, %d problems\n", m.HiddenSizes, m.Seed, m.Problems)
			fmt.Printf("  train loss    %v\n", m.TrainLoss)
			fmt.Printf("  test loss     %v\n", m.TestLoss)
		}
	}
	return nil
}
