"""Many-to-many matching simulator for the distributed DAP/MAP market.

Import each name from the module that defines it, for example
``from phosmarket.experiment import run_experiment``; importing the
package itself loads none of its modules.
"""

__version__ = "0.1.0"
