module lapushdb/perfbench

go 1.22

require lapushdb v0.0.0

replace lapushdb => ../
