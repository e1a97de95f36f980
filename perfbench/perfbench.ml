let () = Pb_bench.main ()
