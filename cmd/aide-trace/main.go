// Command aide-trace records application execution traces (the paper's §4
// trace-acquisition step) and inspects recorded trace files.
package main

import (
	"flag"
	"fmt"
	"os"

	"aide/internal/apps"
	"aide/internal/trace"
)

func main() {
	var (
		record = flag.String("record", "", "application to record (JavaNote, Dia, Biomer, Voxel, Tracer)")
		out    = flag.String("o", "", "output file for -record (default <app>.trace.gz)")
		info   = flag.String("info", "", "print statistics of a recorded trace file")
	)
	flag.Parse()
	if err := run(*record, *out, *info); err != nil {
		fmt.Fprintln(os.Stderr, "aide-trace:", err)
		os.Exit(1)
	}
}

func run(record, out, info string) error {
	switch {
	case record != "":
		spec, err := apps.ByName(record)
		if err != nil {
			return err
		}
		tr, err := apps.Record(spec)
		if err != nil {
			return err
		}
		if out == "" {
			out = spec.Name + ".trace.gz"
		}
		if err := trace.WriteFile(out, tr); err != nil {
			return err
		}
		fmt.Printf("recorded %s: %d classes, %d events -> %s\n",
			spec.Name, len(tr.Classes), len(tr.Events), out)
		return nil
	case info != "":
		tr, err := trace.ReadFile(info)
		if err != nil {
			return err
		}
		s := trace.ComputeStats(tr)
		fmt.Printf("application    %s\n", tr.App)
		fmt.Printf("record heap    %.1f MiB\n", float64(tr.HeapCapacity)/(1<<20))
		fmt.Printf("classes        %d (avg %.0f live, max %d)\n", len(tr.Classes), s.ClassesAvg, s.ClassesMax)
		fmt.Printf("objects        avg %.0f live, max %d, %d events\n", s.ObjectsAvg, s.ObjectsMax, s.ObjectEvents)
		fmt.Printf("interactions   avg %.0f links, max %d, %d events (%d invocations, %d accesses)\n",
			s.LinksAvg, s.LinksMax, s.InteractionEvents, s.Invocations, s.Accesses)
		fmt.Printf("bytes moved    %.1f MiB between classes\n", float64(s.BytesTransferred)/(1<<20))
		fmt.Printf("peak live heap %.2f MiB\n", float64(s.PeakLiveBytes)/(1<<20))
		fmt.Printf("self time      %.2f s at tracing-PC speed\n", s.SelfTime.Seconds())
		pinned, arrays, stateless := 0, 0, 0
		for _, c := range tr.Classes {
			if c.Pinned {
				pinned++
			}
			if c.Array {
				arrays++
			}
			if c.Stateless {
				stateless++
			}
		}
		fmt.Printf("pinned classes %d (%d stateless-native), array classes %d\n", pinned, stateless, arrays)
		return nil
	default:
		return fmt.Errorf("specify -record <app> or -info <file>")
	}
}
