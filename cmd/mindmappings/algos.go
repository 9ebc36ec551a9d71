package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mindmappings/internal/loopnest"
	"mindmappings/internal/workload"
)

// cmdAlgos lists the registered workloads: canonical dimensions, tensors
// with their subscripts, an example dims map, and the fingerprint stamped
// into datasets and surrogates. The listing is generated from the workload
// registry, so it always matches what the binary can actually run.
func cmdAlgos(args []string) error {
	fs := flag.NewFlagSet("algos", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print sample spaces and fingerprints")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return writeAlgos(os.Stdout, *verbose)
}

func writeAlgos(w io.Writer, verbose bool) error {
	infos := workload.List()
	if len(infos) == 0 {
		return fmt.Errorf("no workloads registered")
	}
	for i, info := range infos {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s\n", info.Name)
		fmt.Fprintf(w, "  einsum   %s\n", info.Expr)
		fmt.Fprintf(w, "  dims     %s\n", strings.Join(info.Dims, ","))
		fmt.Fprintf(w, "  tensors  %s\n", strings.Join(info.Tensors, "  "))
		fmt.Fprintf(w, "  example  -shape %s\n", exampleShape(info))
		if verbose {
			algo, err := loopnest.AlgorithmByName(info.Name)
			if err != nil {
				return err
			}
			for d, dn := range algo.DimNames {
				fmt.Fprintf(w, "  sample %-4s %v\n", dn, algo.SampleSpace[d])
			}
			fmt.Fprintf(w, "  fingerprint %s\n", info.Fingerprint)
		}
	}
	return nil
}

// exampleShape renders an Info's example dims map as a -shape argument in
// canonical dimension order (ExampleDims always carries exactly one entry
// per canonical dimension).
func exampleShape(info workload.Info) string {
	parts := make([]string, 0, len(info.Dims))
	for _, d := range info.Dims {
		parts = append(parts, fmt.Sprintf("%s=%d", d, info.ExampleDims[d]))
	}
	return strings.Join(parts, ",")
}
