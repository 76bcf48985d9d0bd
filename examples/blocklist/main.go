// Blocklist demonstrates the paper's operational takeaway (§4.4, §6.6):
// a blocklist of observed scanner addresses is nearly worthless a week
// later — non-institutional scanners are burned after one campaign, so
// "collecting and sharing lists of IP addresses observed to have
// participated in scanning ... would in practice be relatively
// ineffective". The exception: institutional scanners, which re-scan daily
// from stable addresses.
package main

import (
	"fmt"
	"log"
	"strings"

	synscan "github.com/synscan/synscan"
)

func main() {
	// The blocklist experiment simulates its own year, 2022.
	ev, err := synscan.Evaluate(synscan.Input{Seed: 5, Scale: 0.001, TelescopeSize: 4096}, "blocklist")
	if err != nil {
		log.Fatal(err)
	}
	res := ev.Blocklist

	fmt.Printf("blocklist coverage of later traffic, %d (%d capture weeks)\n\n", res.Year, res.Weeks)
	fmt.Printf("%-18s %-12s %-12s\n", "list age", "all traffic", "institutional")
	for k := 0; k < res.Weeks; k++ {
		label := "live feed"
		if k > 0 {
			label = fmt.Sprintf("%d week(s) old", k)
		}
		bar := strings.Repeat("#", int(res.HitRate[k]*30))
		fmt.Printf("%-18s %6.1f%%      %6.1f%%      %s\n",
			label, res.HitRate[k]*100, res.InstHitRate[k]*100, bar)
	}

	fmt.Println("\na one-week-old list covers only a fraction of ongoing scanning —")
	fmt.Println("while the institutional scanners it lists will still be there —")
	fmt.Println("so scanner lists are only useful as a real-time feed (§4.4).")
}
